# Regenerates the captures in this directory: the bodies a Python client
# builds with json.dumps, whose defaults escape every non-ASCII character
# as \uXXXX (astral ones as a surrogate pair) and put a space after ':'
# and ','. The request uses JSON-RPC 1.0 framing, with no "jsonrpc"
# member. Run from this directory with python3; the output is
# deterministic.
import json

captures = {
    "request.json": json.dumps({
        "method": "analysis.submit",
        "params": [
            "h" + chr(0xE9) + " " + chr(0x1D11E),
            1e-07, 1e16, 2.5, 42, -7, True, None,
            {"__jsonclass_base64__": "AAEC/w=="},
            {"__jsonclass_datetime__": "2005-06-15T12:30:45.5+02:00"},
            {"run": 42, "__jsonclass_base64__": "aGk="},
            [1, [2, [3]]],
        ],
        "id": "py-1",
    }),
    "response.json": json.dumps({
        "jsonrpc": "2.0",
        "result": [{"run": 100001, "lfn": "/store/data/x.root", "size": 1024.5,
                    "ok": False, "tags": ["muon", "2005", "h" + chr(0xE9)]}],
        "id": 7,
    }),
    "fault.json": json.dumps({
        "jsonrpc": "2.0",
        "error": {"code": -32601, "message": "method not found: x.y"},
        "id": 7,
    }),
}

for name, body in captures.items():
    with open(name, "w", encoding="ascii", newline="") as f:
        f.write(body)
