"""Layer-resolved benchmark of the 1-bit NF BIST reproduction.

Usage, from the root of a checkout::

    python3 nfbench/run.py --workload paper_philox --seed 1 --seconds 20 --trace 0

Workloads: ``paper_philox``, ``paper_compat``, ``service_lots``.  With
``--trace 1`` the run reports per-layer metrics instead of end-to-end
ones.  See nfbench/README.md.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here, imports included

import pathlib  # noqa: E402
import sys  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"nfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


if __name__ == "__main__":
    use_checkout_source()
    import nfb_runner

    sys.exit(nfb_runner.main(T_START))
