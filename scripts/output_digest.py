"""Print a sha256 digest of every file that the configs/*.json runs write.

    python3 scripts/output_digest.py > digests.txt
    python3 scripts/output_digest.py path/to/config.json ...

Each config (every configs/*.json unless paths are given) runs through the
library of this checkout into a temporary directory, and one line
`<sha256>  <config>/<file>` is printed per output file, <config> being the
file name without .json.  report.json is hashed without its volatile "meta"
entry, as reporting.report_bytes encodes the report that run_experiment
returns with drop_meta=True.  Diffing the output of two checkouts shows
whether a change keeps every output byte-identical; a path lets one config,
or a variant of one, be digested in both.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gibbscert.cli import load_config, run_experiment  # noqa: E402
from gibbscert.reporting import report_bytes  # noqa: E402


def main(configs: list[str] | None = None) -> int:
    paths = [Path(c) for c in configs] if configs else sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in paths:
            out = Path(tmp) / config.stem
            report, _ = run_experiment(load_config(config), out)
            for path in sorted(out.iterdir()):
                if path.name == "report.json":
                    data = report_bytes(report, drop_meta=True) + b"\n"
                else:
                    data = path.read_bytes()
                print(f"{hashlib.sha256(data).hexdigest()}  {config.stem}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
