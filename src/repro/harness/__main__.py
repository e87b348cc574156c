"""Command-line figure regeneration: ``python -m repro.harness <target>``.

Targets: ``table1``, ``fig9`` .. ``fig17``, ``area``, or ``all``.
``--scale`` shrinks/stretches simulation windows (1.0 = the defaults the
benchmark suite uses).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import figures

TARGETS = ("table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
           "fig15", "fig16", "fig17", "area")


def run_target(target: str, scale: float, workers=None,
               use_cache=None) -> str:
    """Produce the formatted output of one figure/table.  ``workers`` and
    ``use_cache`` apply to every simulated target."""
    engine = {"workers": workers, "use_cache": use_cache}
    windows = {**figures.scaled_windows(scale), **engine}
    if target == "table1":
        return figures.format_table1(figures.table1())
    if target == "area":
        return figures.format_area_overhead(figures.area_overhead())
    if target in ("fig9", "fig10", "fig11", "fig15"):
        suite = figures.run_benchmark_suite(**windows)
        driver = {"fig9": (figures.figure9, figures.format_figure9),
                  "fig10": (figures.figure10, figures.format_figure10),
                  "fig11": (figures.figure11, figures.format_figure11),
                  "fig15": (figures.figure15, figures.format_figure15)}
        build, render = driver[target]
        return render(build(suite))
    if target == "fig12":
        results = figures.figure12(injection_rates=figures.FIG12_RATES,
                                   **figures.fig12_windows(scale), **engine)
        return figures.format_figure12(results, figures.FIG12_RATES)
    if target == "fig13":
        return figures.format_figure13(figures.figure13(**windows))
    if target == "fig14":
        return figures.format_figure14(figures.figure14(**windows))
    if target == "fig16":
        return figures.format_figure16(figures.figure16(**windows))
    if target == "fig17":
        return figures.format_figure17(figures.figure17())
    raise ValueError(f"unknown target {target!r}")


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate APPROX-NoC evaluation tables and figures.")
    parser.add_argument("targets", nargs="+",
                        help=f"one or more of {', '.join(TARGETS)}, or 'all'")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="simulation-window scale factor (default 1.0)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run simulated targets across N worker "
                             "processes (default: serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache "
                             "(.repro_cache/; also REPRO_NO_CACHE=1)")
    args = parser.parse_args(argv)
    targets = list(args.targets)
    if "all" in targets:
        targets = list(TARGETS)
    for target in targets:
        if target not in TARGETS:
            parser.error(f"unknown target {target!r}; "
                         f"choose from {', '.join(TARGETS)} or 'all'")
    use_cache = False if args.no_cache else None
    for target in targets:
        start = time.time()
        print(run_target(target, args.scale, workers=args.workers,
                         use_cache=use_cache))
        print(f"[{target} regenerated in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
