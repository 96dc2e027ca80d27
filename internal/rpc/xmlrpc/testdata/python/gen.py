# Regenerates the captures in this directory: the bytes Python's
# xmlrpc.client puts on the wire for a request, a response and a fault.
# Run from this directory with python3; the output is deterministic.
import datetime
import xmlrpc.client as x

captures = {
    "request.xml": x.dumps(
        (
            "line one\r\nline two\rline three",
            x.Binary(bytes(range(256))),
            x.DateTime(datetime.datetime(2005, 6, 15, 12, 30, 45)),
            {"run": 42, "dataset": {"lfn": "/store/a&b<c>.root", "events": [1, 2.5, True]}},
            None,
        ),
        methodname="analysis.submit",
        allow_none=True,
    ),
    "response.xml": x.dumps(
        ([{"run": 100001, "lfn": "/store/data/x.root", "size": 1024.5, "ok": False,
           "tags": ["muon", "2005", "hé"]}],),
        methodresponse=True,
    ),
    "fault.xml": x.dumps(x.Fault(4, "Too many parameters."), methodresponse=True),
}

for name, body in captures.items():
    with open(name, "w", encoding="utf-8", newline="") as f:
        f.write(body)
