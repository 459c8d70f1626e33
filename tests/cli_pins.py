"""The CLI output pins: each row of cli_pins.json runs one mvgroups
command and pins its exit code, the sha256 of its stdout and its stderr.

A row holds "argv", the arguments as one space-separated string, in
which @name is the path of the fixture or saved output called name;
"exit"; "sha256"; either "stderr", the exact text (empty when absent),
or "stderr_prefix"; and optionally "save", a name under which its stdout
is kept for the rows after it.  Rows run in table order.

    python tests/cli_pins.py

runs every row through the installed ``mvgroups`` console script and
exits 1 after listing each row that does not match.  In process, through
cli.main, tests/test_cli.py runs the enumerate rows and the rows on each
group of GROUPS under names of their own, and tests/test_cli_pins.py runs
the other rows.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from mvgroups import algebra, cli, core

TABLE = Path(__file__).with_name("cli_pins.json")

# Z_p and its multiplier x -> u*x: Zp.grp.json (grp-v1) and Zp-u.act.json
# (act-v1).
ACTIONS = ((11, 10), (61, 13), (97, 35), (181, 48), (193, 85))

# The coset group of Z_p under the powers of u, as compact mvg-v1 in
# Zp-u.mvg.json, or in Zp-u-corrupt.mvg.json with one unit of m[1][2]
# moved; and a copy with its last two elements swapped and every entry
# doubled, in Zp-u.copy.json or Zp-u-corrupt.copy.json.
GROUPS = ((97, 35, False), (181, 48, False), (193, 85, True))


def load_rows():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def enumerate_rows():
    """The enumerate rows, each keyed by its arguments after --vmax with
    the dashes dropped: "70000-csv" for enumerate --vmax 70000 --csv."""
    return {
        "-".join(row["argv"].split()[2:]).replace("--", ""): row
        for row in load_rows()
        if row["argv"].startswith("enumerate --vmax ")
    }


def group_rows():
    """The rows that read the fixtures of each group of GROUPS, keyed
    Zp-d, d the order of u, with -corrupt for the corrupted group."""
    named = {}
    for p, u, corrupt in GROUPS:
        d = next(k for k in range(1, p) if pow(u, k, p) == 1)
        named[f"Z{p}-{d}{'-corrupt' * corrupt}"] = [
            row for row in load_rows() if f"@Z{p}." in row["argv"] or f"@Z{p}-" in row["argv"]
        ]
    return named


def _relabelled(data):
    """The mvg-v1 text of the group in data with its last two elements
    swapped and every entry doubled."""
    order = len(data["star"])
    perm = list(range(order - 2)) + [order - 1, order - 2]
    star = [perm[data["star"][x]] for x in perm]
    table = np.array(data["table"])[np.ix_(perm, perm, perm)] * 2
    return core.dumps(core.MultivaluedGroup(data["n"] * 2, perm[data["identity"]], star, table))


def write_fixtures(work: Path) -> None:
    for p, u in ACTIONS:
        op = [[(x + y) % p for y in range(p)] for x in range(p)]
        (work / f"Z{p}.grp.json").write_text(json.dumps({"format": "grp-v1", "size": p, "op": op}))
        act = {"format": "act-v1", "generators": [[u * x % p for x in range(p)]]}
        (work / f"Z{p}-{u}.act.json").write_text(json.dumps(act))
    for p, u, corrupt in GROUPS:
        field = algebra.make_field(p, 1)
        group = algebra.additive_group(field)
        action = algebra.close_action(group, [algebra.multiplier_automorphism(field, u)])
        data = core.to_json_dict(algebra.coset_group(group, action))
        if corrupt:
            row = data["table"][1][2]
            src = next(z for z, m in enumerate(row) if m)
            row[src] -= 1
            row[src + 1] += 1
        stem = f"Z{p}-{u}{'-corrupt' * corrupt}"
        (work / f"{stem}.mvg.json").write_text(json.dumps(data))
        (work / f"{stem}.copy.json").write_text(_relabelled(data))


def check(launch, work: Path, rows=None) -> list:
    """Write the fixtures into work, run rows (every row when None)
    through launch(argv), which returns (exit code, stdout bytes, stderr
    text), and return one line for each row that does not match."""
    write_fixtures(work)
    mismatches = []
    for row in load_rows() if rows is None else rows:
        argv = [str(work / arg[1:]) if arg.startswith("@") else arg for arg in row["argv"].split()]
        code, out, err = launch(argv)
        if "save" in row:
            (work / row["save"]).write_bytes(out)
        digest = hashlib.sha256(out).hexdigest()
        if "stderr_prefix" in row:
            err_ok = err.startswith(row["stderr_prefix"])
        else:
            err_ok = err == row.get("stderr", "")
        if code != row["exit"] or digest != row["sha256"] or not err_ok:
            mismatches.append(f"{row['argv']}: exit {code}, sha256 {digest}, stderr {err!r}")
    return mismatches


def in_process(capsys):
    """A launcher that runs argv through cli.main and reads its output
    from capsys."""

    def launch(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out.encode("utf-8"), captured.err

    return launch


def launch_console_script(argv):
    result = subprocess.run(["mvgroups", *argv], capture_output=True)
    return result.returncode, result.stdout, result.stderr.decode("utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        mismatches = check(launch_console_script, Path(work))
    for line in mismatches:
        print(f"mismatch: {line}")
    total = len(load_rows())
    print(f"{total - len(mismatches)} of {total} pinned rows match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
