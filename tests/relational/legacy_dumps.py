"""Legacy (version 1-3) dumps, checked in as bytes: no writer for them is left.

Each was written by ``save_database(build_db(), d, format_version=...)`` of
the last release that still wrote it (version 1 is the version-2 dump with
its per-file CRC32s removed), with the optimizer statistics left out of the
catalog.  A dump is a JSON object ``{relative path: file text}``, zlib +
base64.  Version 1 and 2 keep one JSON array per row (``data/<t>.jsonl``),
version 3 one JSON value array per column (``data/<t>.cols.json``).
"""

import base64
import datetime
import json
import os
import zlib

from repro.relational import DATE, Database, FLOAT, INTEGER, TEXT

LEGACY_DUMPS = {
    1: (
        "eNqVlV1v2jAUhv9KFO0yMJ/jhEDvKo1Nk6ZNmriYRCqUlrRlDYGRUBVV/Pf5uD4B8uEELqo2Po/zvtZT/O4+"
        "xEWcbp6Gf/NN5t447nvkvia7fLXJIvcGvMgt4vs0ydUfc7WUxetE/aqeRq5ae9ik+3VWW9xucr1cHLYfD77/"
        "nE2/TX9H7tE7n3uN08u5rz9+3c6qU0X8dDk1m/6pDS0vR77czqZq5E492+5W63h3WLwkB8pp0tHKKlsmb/Vq"
        "94cFv/Ksn8lB3IsC9eRznD/ruX22+rcn+jFO80S/dqnOdfG4Sk0Hfb5pNXWy3hYH20m+tZ1jQ7NKpXoI/bYy"
        "yN3R9Rw98flsgRQonxenZ3PhOdk+TfmnCvlJzdDGTuSiEDgQciB82jjK5uA5YigrH8/RhwiqUxsfGB6JH1U+"
        "hkcLPzK8ehcMhQGkBQgN4BPQElhY+LHhA+IrecMehSeGV+WwDGxpCMIAIQGVvEF3YQDDj4mvBA66CwMafuI5"
        "sgxsaQiSlRBEtCS2NS6dAtqgHtkmJLBQoIzyy7y2gqwQSCKuVhjYKPCJbzbCVpeNAlUt6OMwsEMwIuJqh5GV"
        "gpAPs6skskWgNBr18RbZG5gQ0RzSUhJZIxTENx+rrSRbhMqisI+4WH4XIRG1xDbtkCVCSWxzWltblgiVROM+"
        "2iJrgwERl2H9Hm1ZIhwRf/U3r2SJUNWb9NFWskM4JqI5cWtjfyBKfkJ8c2Kw8GykVGFBdEusEJZQgkaaM0vL"
        "BmyhRL1Bc2hbaZaSDAR9xbV76J/dh/7Fv7atI6tH380ALRFtHdlEqYYBu+X1T7egDDVypb3+6VaUY73Blfr6"
        "p2tRKplAdvvrlzehe/wPYur6XA=="
    ),
    2: (
        "eNqVld1u2kAQRl/Fsnpp6M6swSZ3kUqrSlUrVVxUiiPkgJPQGEP5iYIi3r0zmx0Dxl4MFxFZz7G/b3XwvvuT"
        "dJPmi6fu3/Wi8G88/z3xX7PVerYoEv8Gg8TfpA95tqZ/7uhSkc4z+kqriU/XJot8Oy/OLi4Xa3N5s1t+LHz/"
        "ORp+G/5O/H1wPPea5qdzX3/8uh1Vpzbp0+nUaPjnbGh6OvLldjSkkXtaW65m83S1G79kO85p0/GVWTHN3s6r"
        "PezG8sijfjYHcy8EmsnndP1s5rbF7N+W6cc0X2fmsVPa1/HjLLcdzP5+tJ2sJhppFVSkY0DsR6dVsvlys3Nt"
        "71vT5tbUrfQ8T2aeVpNO7e/3fuCZ6c9HQ+xIub45rN2pwCu2eS5/KfAnmuGHeImPSmFH6Y4KOWZS3EHgqa6u"
        "fALP7DJQkCa+Z3lkvl/5WB4dfN/y9CzoKgtoBxBZIGSgIbBy8LHle8xX8kYtCg8sT+WwDOxoCMoCEQOVvL3L"
        "hQEsHzNfCdy7XBjQ8oPA02VgR0PQooRioiGxq3HpFPANziO7hAQRCsiosMzrKigKgWbiaoVBjIKQ+XojXHXF"
        "KKBqvTYOgzgEfSaudhhFKYhkMy+VRLEISKN+G29RvIEBE/UhHSVRNELFfP22ukqKRUgWRW3ExfJdhEycJXZp"
        "hyIRambr07raikRIEsVttEXRBntMnIYNW7QVibDP/NVvXi0SIdUbtNFWi0MYM1GfuLFx2FElP2C+PjE4eDFS"
        "U1hQlyUmRCTUYJD6zNpxA7FQo7lBfWhXaZGSDQRzxDV7GB6dh+HJT9vVUdTjdzNAQ0RXRzFR0zDgZXnDwymo"
        "I4NcaW94OBV1bG5wpb7h4VjUJBPoy/6G5Uno7/8DjzoCnw=="
    ),
    3: (
        "eNqtlltv2kAQRv9KZPVxoDuz61veIpVWlapWqnioVBByiENojE2xnQZF/PeOjZFhlyFKVT+ZPWdnZz/fePHm"
        "SZVkxWL4qyxy7/rKe5l4T+mmXBb5xLvWMPGq5DZLS/7xk1GerFI+5dGJx2xeZPUqd+C6KFtcbdf7gc9fx6NP"
        "o+8TbwfH3lOSnXofv3y7GdtWlSxOrfHohyPdnSofbsYjVqY8tt4sV8lmO3tMt02fXXcNWeZ36bO7tdvt7LDk"
        "0f66Ppp5jzyxNR+S8qH16nz5u25m3ydZmbbL3nGus/tl1u1hyKXKNuR94c1cExMMKQyD2PfN6XbS1braXor4"
        "WQr4zJatvbrdtatJHfIR+DHF0W668+CqnfremtHdOHm9mm2KP80q6rXW+drXXT/HhatLRY16/Z7r6ypAINBg"
        "wIcAQoggBuRBBCRADWgAfcAAMASMAGMgBcRzCEgDGSAfKAAKgSKgGLQCjaC5pAZtQPugA9Ah6Ah0PD1/Z/fd"
        "5HWWgRpq6+ChwDoAh9yla6JtcmNskm1y17bJrbKpXVO7pmHT2CaP2Gv77PmO124zYBQ4KHBKhOyFjhc6XsRe"
        "ZHmGR+zgYvZix4sdD1WTsHJMVK7aXIx2U4gubPJHcuuQq/IFmJ5/r1n3SAtw/3gnCzqc6MOJOpy82enL/3uN"
        "C05f/j/06jp9+bfWmJ77VPSpM3vH7549JKVooPRAme4Lcwb5MgpkFMooklEsIlQyQhmRjLSM5DRQTgPlNFBO"
        "A+U0UE6D5DRIToPkNEhOg+Q0SE6D5DRIToPkNEhOQ8tpaCkNM1AXEMlIy8jIyJdRIKNQRpGMYhGJD5GRHyKz"
        "f4javy27vwXSCss="
    ),
}


def build_db() -> Database:
    """The database every legacy dump holds."""
    db = Database()
    db.create_table(
        "t",
        [("pos", INTEGER), ("val", FLOAT), ("tag", TEXT), ("d", DATE)],
        primary_key=["pos"],
    )
    db.insert("t", [
        (
            i,
            None if i % 17 == 0 else i / 3.0,
            None if i % 11 == 0 else f"tag{i % 4}",
            datetime.date(2002, 3, 4) + datetime.timedelta(days=i),
        )
        for i in range(40)
    ])
    db.create_index("t", "by_tag", ["tag"], kind="hash")
    db.create_table("empty", [("x", INTEGER)])
    return db


def write_legacy_dump(directory: str, version: int) -> None:
    """Lay the version-``version`` dump of :func:`build_db` out under ``directory``."""
    files = json.loads(zlib.decompress(base64.b64decode(LEGACY_DUMPS[version])))
    os.makedirs(os.path.join(directory, "data"), exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
