"""Check certificates with `xorgames.check` alone, in a fresh interpreter:

    python tests/check_closure.py GAME CERT [GAME CERT ...]

Prints PASS or FAIL for each pair, as `xorgames verify` would. Exits
nonzero if checking loaded a module of the decision path, or if a name in
`xorgames.__all__` then fails to import."""

import sys

from xorgames import check
from xorgames.games import parse_game

DECISION_PATH = ("decider", "intlinalg", "refutation", "graphs", "oracle")

paths = sys.argv[1:]
for game_path, cert_path in zip(paths[::2], paths[1::2]):
    with open(game_path, encoding="utf-8") as fh:
        game = parse_game(fh.read())
    with open(cert_path, encoding="utf-8") as fh:
        cert = check.load_certificate(fh.read())
    print("PASS" if check.check_certificate(game, cert) else "FAIL")
loaded = [name for name in DECISION_PATH if f"xorgames.{name}" in sys.modules]
if loaded:
    sys.exit(f"checking loaded the decision path: {loaded}")

import xorgames  # noqa: E402

for name in xorgames.__all__:
    getattr(__import__("xorgames", fromlist=[name]), name)  # `from xorgames import name`
