"""A traced `genus-forge` process: the console entry point with every layer
wrapped, writing its spans and counters to a JSON file on exit.

    PYTHONPATH=src python3 perfbench/clishim.py --out trace.json --job 3 -- compute --manifold K3 --genus ahat

Exit code and stdout are those of `genus-forge <args>`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    out = Path(opts[opts.index("--out") + 1])
    job = int(opts[opts.index("--job") + 1])

    import genus_forge.cli as cli_module

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    tracer.current_job = job
    try:
        code = cli_module.main(cli_args)  # the wrapped entry point
    finally:
        tracing.uninstall(undo)
        out.write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main())
