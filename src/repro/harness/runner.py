"""Command line: run registered experiments and print the report.

``python -m repro.harness.runner [ids...] [--full] [--markdown] [--jobs N]``;
``--full --markdown`` renders the full-size report.
"""

from __future__ import annotations

import argparse

from .experiments import run_experiments


def main() -> None:  # pragma: no cover - CLI convenience
    """Command-line entry point: run the selected suite and print the report."""
    parser = argparse.ArgumentParser(description="Run the OTP reproduction experiments")
    parser.add_argument("names", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true", help="run the full parameter sweeps")
    parser.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per experiment sweep (default: 1 = serial)",
    )
    arguments = parser.parse_args()
    suite = run_experiments(
        arguments.names or None, fast=not arguments.full, jobs=arguments.jobs
    )
    print(suite.to_markdown() if arguments.markdown else suite.to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
