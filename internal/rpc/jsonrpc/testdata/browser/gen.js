// Regenerates the captures in this directory: the bodies the portal's
// rpc() function (internal/portal) sends, built with the same
// JSON.stringify call. Run from this directory with node; the output is
// deterministic.
const fs = require("fs");

function body(method, params) {
  return JSON.stringify({jsonrpc: "2.0", method: method, params: params || [], id: 1});
}

const ch = String.fromCodePoint;

const captures = {
  // JSON.stringify leaves U+2028 and astral characters raw, escapes a
  // lone surrogate, writes -0 as 0 and switches to exponents at 1e21.
  "request.json": body("system.echo", [
    "line" + ch(0x2028) + "sep",
    "astral " + ch(0x1d11e),
    "</script><b>&amp;",
    "lone " + String.fromCharCode(0xd800),
    "\"quoted\"\n\ttab",
    -0, 1e21, 5e-324, 0.1, 3, -7, true, null,
    {b: [1, 2.5], a: "x"},
  ]),
  "multicall.json": body("system.multicall", [[
    {methodName: "system.ping", params: []},
    {methodName: "system.echo", params: ["hi"]},
    {methodName: "vo.is_member", params: ["cms", "/O=grid/CN=Alice"]},
    {methodName: "system.whoami", params: []},
  ]]),
  "no-params.json": body("system.list_methods"),
};

for (const [name, text] of Object.entries(captures)) {
  fs.writeFileSync(name, text);
}
