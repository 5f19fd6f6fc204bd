"""The three workloads: what one pass calls, and how its output is checked.

Each workload has ``setup(mods, seed)`` returning its state, ``call(mods,
state)`` doing one timed pass through ``coghier``, and ``check(state, raw,
error)`` returning ``(ops, failed ops, digest, extras)`` for that pass.
``mods`` maps module names (``cli``, ``kernel``, ...) to the imported modules.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
from pathlib import Path

import chain

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references(workload: str) -> dict:
    """Recorded outcomes of ``workload`` by seed, as ``record_references.py`` wrote them."""
    return json.loads(REFERENCES.read_text())[workload]


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``coghier.cli.main`` in-process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Servo:
    """The 100-trial x 2-mode tracking experiment; one op is one episode."""

    name = "servo"
    trials = 100
    min_passes = 1

    def __init__(self, workdir: Path):
        self.csv = workdir / "servo.csv"
        self.json = workdir / "servo.json"
        self.references = load_references(self.name)

    def argv(self, seed: int) -> list[str]:
        return ["servo", "--trials", str(self.trials), "--seed", str(seed),
                "--csv", str(self.csv), "--json", str(self.json)]

    def setup(self, mods, seed):
        return {"seed": seed, "argv": self.argv(seed)}

    def call(self, mods, state):
        return run_cli(mods["cli"], state["argv"])

    def outcome(self, raw) -> dict | None:
        """Exit code and digest of the CSV, JSON and standard output of one pass."""
        code, stdout = raw
        try:
            csv_bytes, json_bytes = self.csv.read_bytes(), self.json.read_bytes()
        except OSError:
            return None
        finally:  # a later pass must write its own files
            self.csv.unlink(missing_ok=True)
            self.json.unlink(missing_ok=True)
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        if len(rows) != 2 * self.trials + 1:
            return None
        return {"exit": code, "digest": _sha(csv_bytes, json_bytes, stdout.encode())}

    def check(self, state, raw, error):
        ops = 2 * self.trials
        found = None if error is not None else self.outcome(raw)
        if found is None:
            return ops, ops, "error", {}
        expected = self.references.get(str(state["seed"]), found)
        first = state.setdefault("first", found)  # every pass runs the same inputs
        ok = found["exit"] == 0 and found == expected == first
        return ops, 0 if ok else ops, found["digest"], {}


_TREE_LINE = re.compile(r"^(tree-\d+): (PASS|FAIL) nodes=\d+ max_deviation=(\S+) ticks=\d+")


class BpSuite:
    """The 100-random-tree equivalence suite; one op is one tree.

    Pass ``j`` of a run with seed ``S`` draws its trees with seed ``S + 1000 * j``.
    Suites differ a lot in size from seed to seed, so a run measures many of
    them rather than one suite many times.
    """

    name = "bp-suite"
    trees = 100
    min_passes = 1
    seed_stride = 1000

    def __init__(self):
        self.references = load_references(self.name)

    def setup(self, mods, seed):
        return {"seed": seed, "pass": 0}

    def argv(self, state) -> list[str]:
        seed = state["seed"] + self.seed_stride * state["pass"]
        return ["bp", "--random", str(self.trees), "--seed", str(seed)]

    def call(self, mods, state):
        return run_cli(mods["cli"], self.argv(state))

    def outcome(self, raw) -> dict:
        """Exit code and digest of standard output with the deviations masked.

        Deviations may move in the last bits while staying far inside the
        1e-9 tolerance that every PASS line already checks.
        """
        code, stdout = raw
        masked = re.sub(r"max_deviation=\S+", "max_deviation=*", stdout)
        return {"exit": code, "digest": _sha(masked.encode())}

    def check(self, state, raw, error):
        expected = self.references.get(self.argv(state)[-1])
        state["pass"] += 1
        if error is not None:
            return self.trees, self.trees, "error", {}
        code, stdout = raw
        passed, deviation = set(), state.get("max_deviation", 0.0)
        for line in stdout.splitlines():
            match = _TREE_LINE.match(line)
            if match and match.group(2) == "PASS":
                passed.add(match.group(1))
                deviation = max(deviation, float(match.group(3)))
        failed = self.trees - len(passed)
        if code != 0 or expected not in (None, self.outcome(raw)):
            failed = self.trees
        state["max_deviation"] = deviation
        return self.trees, failed, _sha(stdout.encode()), {"max_deviation": deviation}


class Chain:
    """Ticks of an ``n``-node scalar chain loaded from a document; one op is one tick."""

    min_passes = 120  # so that p90 has at least ten ticks beyond it
    digest_tick = 100

    def __init__(self, n: int):
        self.n = n
        self.name = f"chain-{n}"
        self.ids = tuple(chain.node_id(i) for i in range(1, n + 1))

    def setup(self, mods, seed):
        inputs = chain.make_inputs(seed, self.n)
        doc = json.loads(chain.document_text(self.n))
        registry = mods["documents"].default_registry()
        chain.register(registry, mods["kernel"], inputs)
        hierarchy = mods["documents"].load_hierarchy_document(doc, registry)
        ah = mods["kernel"].init_active(hierarchy, chain.initial_world(inputs))
        return {"ah": ah, "reference": chain.Reference(inputs), "ticks": 0, "digest": None}

    def call(self, mods, state):
        state["ah"] = mods["kernel"].process_update(state["ah"])

    def check(self, state, raw, error):
        reference = state["reference"]
        reference.step()
        state["ticks"] += 1
        ah = state["ah"]
        if state["ticks"] == self.digest_tick:
            beliefs = [ah.active[nid].belief for nid in self.ids]
            state["digest"] = _sha(repr((beliefs, ah.world_state)).encode())
        ok = error is None and reference.matches(ah, self.ids)
        return 1, 0 if ok else 1, state["digest"], {}
