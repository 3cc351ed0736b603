"""Set-up time of one fresh interpreter: import sqom.cli, load the config and
finish one warm-up CLI call. Prints the seconds taken; exits 1 when the
warm-up call fails.

Usage: python3 setup_probe.py SRC_DIR CONFIG ARGV_JSON
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, config, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from sqom.cli import main as sqom_main
    from sqom.params import load_config

    load_config(config)
    code = sqom_main(argv)
    print(repr(time.perf_counter() - T0))
    if code != 0:
        print(f"warm-up call `sqom {argv[0]}` exited with {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
