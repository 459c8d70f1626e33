"""Record the digests of the catalogue workload's enumerate outputs.

    python3 perfbench/record_golden.py

The outputs do not depend on the seed, so golden.json holds the sha256
of each one as the checked-out program writes it.  Recorded on the
commit that introduced the benchmark; the program's output must stay
byte-identical, so re-record only when a change is meant to alter it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run
import workloads


def main() -> int:
    run.cap_threads()
    mv = run.import_program()
    run.SCRATCH.mkdir(exist_ok=True)
    out = run.SCRATCH / "golden-output.txt"
    digests = {}
    try:
        for vmax in workloads.ENUMERATE_VMAX:
            for fmt, flags in workloads.ENUMERATE_FORMATS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = mv.cli.main(["enumerate", "--vmax", str(vmax), *flags, "-o", str(out)])
                if code != 0:
                    print(f"enumerate {vmax} {fmt} exited with {code}", file=sys.stderr)
                    return 1
                digests[f"enumerate {vmax} {fmt}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        out.unlink(missing_ok=True)
    (run.HERE / "golden.json").write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
