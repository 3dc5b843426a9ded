"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/``;
scratch files (DuckDB spill, Spark local dirs, span dumps) go to
``.perfbench/`` in the same root. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: {src / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Import perfbench as a package, not its files as top-level modules.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT), str(src)] + [p for p in sys.path if p != here]
    out = ROOT / ".perfbench"
    from perfbench import sparkenv

    sparkenv.configure(src, out)
    from perfbench.harness import main as run

    return run(sys.argv[1:], out)


if __name__ == "__main__":
    sys.exit(main())
