"""The exit-2 contract, fuzzed: seeded mutants of every file the CLI
reads (model, bins, series, results.csv, grid, pipeline config, synth
spec and a CDR day file) run through cli.main. Each must exit 0 or 2,
never 1, and warn of nothing, and an exit 2 must name the file or the
flag that took it.

The corpus runs in one child process under RLIMIT_AS (conftest's
run_capped), so that a mutant that allocates without bound fails there
and not in the test runner. `python tests/test_fuzz.py` runs it in this
process and prints each failing case with its input."""

import contextlib
import io
import json
import os
import random
import re
import sys
import warnings

from cellcast.cli import main
from conftest import run_capped

SEED = 20131101
MUTANTS_PER_FILE = 80
# Bytes that byte edits insert or write over: digits, signs, JSON and
# CSV syntax, line ends, a NUL and a byte that is not UTF-8.
BYTES = [b"0", b"9", b"-", b"+", b".", b"e", b'"', b",", b":", b"{", b"}", b"[", b"]",
         b"\n", b"\r", b"\t", b" ", b"\x00", b"\xff", b"A", b"/", b"="]
# Values that JSON-value edits put in place of a value, and texts that
# field edits put in place of a CSV or TSV field.
VALUES = [None, True, "x", "", -1, 0, 1, 0.5, 2**63, 10**30, 1e308, -1e308, [], {}]
FIELDS = ["", "x", "-1", "0", "2.5", "nan", "inf", "1e309", "99999999999999999999",
          "٣", " 7"]
SPAN = "2013-11-01..2013-11-03"  # the two days of SPEC


SPEC = {"archetypes": [
    {"id": 0, "base_level": 10.0, "period_weights": [6, 1, 1, 1, 1, 1],
     "weekend_factor": 0.5, "noise_sd": 0.3},
    {"id": 1, "base_level": 20.0, "period_weights": [1, 1, 6, 1, 1, 1], "noise_sd": 0.3},
], "cells_per_archetype": 2, "days": 2}
GRID = {"hidden_layers": [1], "units": [2], "cell_kinds": ["lstm", "gru"]}
CONFIG = {"out_dir": "run", "seed": 3, "k": 2, "kmax": 3, "synth": SPEC, "grid": GRID,
          "train": {"epochs": 1, "runs": 1}, "utc_offset_hours": 1}


def run_cli(argv):
    """(exit code, stderr, warnings) of cli.main(argv) in this process;
    stdout is dropped."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught]


def _json_slots(node):
    """(container, key) of every value in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _json_slots(value)


def json_edit(text, rng):
    """(what, text) with one value of the JSON document replaced, scaled,
    cut or deleted."""
    doc = json.loads(text)
    node, key = rng.choice(list(_json_slots(doc)))
    value = node[key]
    options = list(VALUES)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        options += [-value, value * 7, value + 0.5]
    if isinstance(value, str):
        options += [value[:len(value) // 2], value[:-4], value + "A"]
    if isinstance(node, dict):
        options.append(KeyError)  # delete the key
    new = rng.choice(options)
    if new is KeyError:
        del node[key]
        return f"delete {key!r}", json.dumps(doc)
    node[key] = new
    return f"{key!r}: {value!r:.40} -> {new!r}", json.dumps(doc)


def field_edit(text, rng):
    """(what, text) with one field of one line of a CSV or TSV replaced."""
    lines = text.split("\n")
    i = rng.randrange(len(lines) - 1)  # the text ends in a newline
    sep = "\t" if "\t" in lines[i] else ","
    fields = lines[i].split(sep)
    j = rng.randrange(len(fields))
    fields[j] = rng.choice(FIELDS)
    lines[i] = sep.join(fields)
    return f"line {i + 1} field {j + 1} -> {fields[j]!r}", "\n".join(lines)


def byte_edit(data, rng):
    """(what, bytes) with bytes truncated, dropped, replaced, inserted or
    duplicated at one offset."""
    i = rng.randrange(len(data))
    b = rng.choice(BYTES)
    kind = rng.choice(["truncate", "drop", "replace", "insert", "duplicate"])
    if kind == "truncate":
        return f"truncate at {i}", data[:i]
    if kind == "drop":
        return f"drop byte {i}", data[:i] + data[i + 1:]
    if kind == "replace":
        return f"byte {i} -> {b!r}", data[:i] + b + data[i + 1:]
    if kind == "insert":
        return f"insert {b!r} at {i}", data[:i] + b + data[i:]
    j = min(len(data), i + rng.randrange(1, 32))
    return f"duplicate bytes {i}..{j}", data[:j] + data[i:j] + data[j:]


def mutants(data, rng, value_edit):
    """MUTANTS_PER_FILE (what, bytes) mutants of data, half byte edits and
    half value edits."""
    for n in range(MUTANTS_PER_FILE):
        if n % 2:
            yield byte_edit(data, rng)
        else:
            what, text = value_edit(data.decode("utf-8"), rng)
            yield what, text.encode("utf-8")


def build_inputs(base):
    """The files the corpus mutates, written under base by the CLI
    itself: name -> (path, value edit, argv that reads the mutant at {M}
    and writes under the directory {D})."""
    def ok(*argv):
        code, err, caught = run_cli(argv)
        assert (code, caught) == (0, []), (argv, err, caught)

    p = lambda name: os.path.join(base, name)  # noqa: E731
    with open(p("spec.json"), "w") as fh:
        json.dump(SPEC, fh)
    with open(p("grid.json"), "w") as fh:
        json.dump(GRID, fh)
    with open(p("config.json"), "w") as fh:
        json.dump(CONFIG, fh)
    ok("synth", "--spec", p("spec.json"), "--out", p("city"), "--seed", 1)
    ok("ingest", "--input", p("city"), "--span", SPAN, "--out", p("bins.json"))
    ok("cluster", "--bins", p("bins.json"), "--k", 2, "--out", p("clusters.json"),
       "--curve", p("curve.csv"), "--series", p("series.json"))
    ok("train", "--series", p("series.json"), "--grid", p("grid.json"), "--runs", 2,
       "--epochs", 1, "--out-dir", p("trained"))
    train = ["train", "--runs", 1, "--epochs", 1, "--out-dir", "{D}/trained"]
    predict = ["predict", "--bins", p("series.json"), "--cluster", 0, "--out", "{D}/p.csv"]
    return {
        "lstm model": (p("trained/lstm_c0.json"), json_edit, predict + ["--model", "{M}"]),
        "gru model": (p("trained/gru_c0.json"), json_edit, predict + ["--model", "{M}"]),
        "bins": (p("bins.json"), json_edit,
                 ["cluster", "--bins", "{M}", "--k", 2, "--out", "{D}/c.json",
                  "--curve", "{D}/curve.csv", "--series", "{D}/s.json"]),
        "series": (p("series.json"), json_edit,
                   train + ["--series", "{M}", "--grid", p("grid.json")]),
        "results": (p("trained/results.csv"), field_edit,
                    ["compare", "--results", "{M}", "--out", "{D}/comparison.json"]),
        "grid": (p("grid.json"), json_edit,
                 train + ["--series", p("series.json"), "--grid", "{M}"]),
        "config": (p("config.json"), json_edit, ["pipeline", "--config", "{M}"]),
        "spec": (p("spec.json"), json_edit, ["synth", "--spec", "{M}", "--out", "{D}/city"]),
        "cdr day": (p("city/cdr-day-000.tsv"), field_edit,
                    ["ingest", "--input", "{M}", "--span", SPAN, "--out", "{D}/bins.json"]),
    }


def run_corpus(base):
    """Run every mutant under base. Print each failing case, then a line
    that counts the mutants, their exits and the failures; return the
    number of failures."""
    exits, failures = [], 0
    inputs = build_inputs(base)
    for n, (name, (path, value_edit, template)) in enumerate(sorted(inputs.items())):
        rng = random.Random(f"{SEED}-{name}")
        with open(path, "rb") as fh:
            data = fh.read()
        for m, (what, mutant) in enumerate(mutants(data, rng, value_edit)):
            case = os.path.join(base, f"case-{n}-{m}")
            os.makedirs(case)
            target = os.path.join(case, os.path.basename(path))
            with open(target, "wb") as fh:
                fh.write(mutant)
            argv = [str(a).format(M=target, D=case) for a in template]
            flag = argv[argv.index(target) - 1]
            os.chdir(case)  # a config's relative out_dir lands here
            code, err, caught = run_cli(argv)
            exits.append(code)
            last = err.strip().splitlines()[-1] if err.strip() else ""
            problems = [f"exit {code}"] if code not in (0, 2) else []
            if caught:
                problems.append(f"warnings {caught}")
            if code == 2 and target not in last and flag not in last:
                problems.append("exit 2 names neither the file nor its flag")
            if problems:
                failures += 1
                print(f"FAIL {name} mutant {m} ({what}): {'; '.join(problems)}\n"
                      f"  argv: {argv}\n  stderr: {err.strip()!r}\n"
                      f"  input: {mutant!r}\n", file=sys.stderr)
    print(f"{len(exits)} mutants: {exits.count(0)} exited 0, {exits.count(2)} exited 2, "
          f"{failures} failed", file=sys.stderr)
    return failures


def test_every_mutant_exits_zero_or_two(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    code, err = run_capped(f"import sys; sys.path.insert(0, {here!r}); import test_fuzz; "
                           f"sys.exit(test_fuzz.run_corpus(sys.argv[1]) > 0)",
                           [tmp_path], cwd=tmp_path, timeout=120)
    assert code == 0, err
    assert re.fullmatch(rf"{9 * MUTANTS_PER_FILE} mutants: \d+ exited 0, \d+ exited 2, 0 failed\n",
                        err), err


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as base:
        sys.exit(run_corpus(base) > 0)
