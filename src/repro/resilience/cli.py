"""``python -m repro.resilience`` — run a fault campaign.

Prints the markdown report to stdout; ``--json PATH`` additionally
writes the seeded, deterministic JSON payload.  Exit status is 0 iff
the campaign recorded zero invariant violations, so CI can gate on the
smoke configuration directly.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.cli import _add_engine_flags, resolve_cache_dir
from repro.exec.engine import ExperimentEngine
from repro.exec.job import FaultSpec
from repro.exec.supervision import RunJournal, SupervisionPolicy
from repro.experiments.figures import MANAGER_NAMES
from repro.resilience.campaign import CampaignConfig, run_campaign

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description=(
            "Fault-campaign harness: sweep sensor and actuator faults "
            "over the three-phase scenario with the resilience pipeline "
            "attached."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI configuration (SPECTR only, 2 s phases)",
    )
    parser.add_argument(
        "--managers",
        nargs="+",
        choices=MANAGER_NAMES,
        default=None,
        help="managers to sweep (default: all four; ignored with --smoke)",
    )
    parser.add_argument(
        "--target",
        choices=FaultSpec.VALID_TARGETS,
        default=None,
        help="faulted cluster (default: big)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="run without the graceful-degradation stage",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH",
    )
    _add_engine_flags(parser)
    return parser


def _build_engine(args: argparse.Namespace) -> ExperimentEngine:
    """The campaign's engine.  The result cache is on when an engine
    flag asks for it (``--workers`` > 1, ``--cache-dir`` or
    ``--journal``) unless ``--no-cache`` is given."""
    cache = None
    if not args.no_cache and (
        args.workers > 1
        or args.cache_dir is not None
        or args.journal is not None
    ):
        cache = ResultCache(resolve_cache_dir(args.cache_dir))
    journal = None
    if args.journal is not None:
        journal = RunJournal(
            args.journal, salt=cache.salt if cache is not None else ""
        )
    return ExperimentEngine(
        max_workers=max(args.workers, 1),
        cache=cache,
        max_crash_retries=args.max_crash_retries,
        journal=journal,
        policy=SupervisionPolicy(deadline_s=args.deadline_s),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        config = CampaignConfig.smoke(seed=args.seed)
        if args.target is not None or args.no_degrade:
            config = CampaignConfig(
                managers=config.managers,
                target=args.target or config.target,
                fault_start_s=config.fault_start_s,
                fault_duration_s=config.fault_duration_s,
                phase_duration_s=config.phase_duration_s,
                seed=config.seed,
                with_degrade=not args.no_degrade,
            )
    else:
        config = CampaignConfig(
            managers=tuple(args.managers or MANAGER_NAMES),
            target=args.target or "big",
            seed=args.seed,
            with_degrade=not args.no_degrade,
        )
    result = run_campaign(config, engine=_build_engine(args))
    print(result.format_markdown())
    if args.json is not None:
        args.json.write_text(result.to_json() + "\n", encoding="utf-8")
        print(f"\nJSON report written to {args.json}")
    return 0 if result.total_violations == 0 else 1
