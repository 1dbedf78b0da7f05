"""Traced launcher for one pvdisagg CLI process.

    python3 perfbench/launch.py --spans OUT.json --op K -- <cli arguments>

Times `import pvdisagg.cli` in this fresh process, installs the span
wrappers, runs `cli.main(arguments)`, writes the spans to OUT.json and
exits with the CLI's own exit code.  Needs the package on PYTHONPATH.
"""

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, metavar="JSON")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    t0 = time.perf_counter()
    import pvdisagg.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer
    tracer = Tracer(op=args.op)
    with tracer.installed():
        code = pvdisagg.cli.main(cli_args)
    tracer.dump(args.spans, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
