"""Command-line surface.

Exit codes: 0 pass, 1 diagnostic failure, 2 configuration error,
3 blow-up-dominated ensemble. Worker count can be overridden with the
LSNS_WORKERS environment variable.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click

from .config import ExperimentConfig
from .errors import ConfigurationError

EXIT_PASS = 0
EXIT_DIAGNOSTIC = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


@contextmanager
def _config_errors_exit():
    """Report a ConfigurationError on stderr and exit with EXIT_CONFIG."""
    try:
        yield
    except ConfigurationError as err:
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)


def _load_config(path) -> ExperimentConfig:
    with _config_errors_exit():
        return ExperimentConfig.load(path)


@click.group()
def main():
    """Leray-regularized stochastic Navier-Stokes simulator and diagnostics."""


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--no-resume", is_flag=True, help="ignore previously completed paths")
def run(config, no_resume):
    """Run the configured ensemble and write the summary."""
    from .ensemble import run_experiment

    cfg = _load_config(config)
    with _config_errors_exit():
        summary = run_experiment(cfg, resume=not no_resume)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if summary["paths_completed"] < summary["paths_requested"] / 2:
        sys.exit(EXIT_BLOWUP)
    if not summary["all_passed"]:
        sys.exit(EXIT_DIAGNOSTIC)


@main.command()
@click.argument("manifest", type=click.Path(exists=True))
@click.argument("diagnostics", type=click.Path(exists=True))
@click.option("--output", type=click.Path(), default=None)
def replay(manifest, diagnostics, output):
    """Recompute diagnostics from stored snapshots (DIAGNOSTICS: JSON spec)."""
    from .ensemble import replay as replay_run

    with _config_errors_exit():
        spec = json.loads(open(diagnostics).read())
        written = replay_run(manifest, spec, output)
    click.echo(json.dumps(written, indent=2))


@main.command("validate-noise")
@click.argument("config", type=click.Path(exists=True))
@click.option("--samples", default=20, help="divergence-free sample fields")
@click.option("--n", default=None, type=int, help="truncation level (default N(eps))")
def validate_noise(config, samples, n):
    """Run the growth/tail/vorticity validators for the configured family."""
    from .noise import (validate_linear_growth, validate_tail_decay,
                        validate_vorticity_control)
    from .spectral import random_solenoidal

    cfg = _load_config(config)
    model = cfg.noise_model()
    if model is None:
        click.echo("configuration error: no noise block to validate", err=True)
        sys.exit(EXIT_CONFIG)
    grid = cfg.grid()
    level = n if n is not None else min(cfg.run_params(0).truncation.n, model.max_k)
    ens = cfg.ensemble_block()
    fields = [random_solenoidal(grid, ens["seed"] + 7000 + i) for i in range(samples)]
    growth = validate_linear_growth(model, fields, level)
    nvals = sorted({max(1, level // 4), max(2, level // 2), level, model.max_k})
    tails = validate_tail_decay(model, fields, nvals)
    vort = validate_vorticity_control(model, fields, level)
    payload = {
        "linear_growth": {"empirical": growth.empirical, "analytic": growth.analytic,
                          "passed": growth.passed},
        "tail_decay": {"n_values": tails.n_values, "empirical": tails.empirical,
                       "analytic": tails.analytic, "nonincreasing": tails.nonincreasing,
                       "passed": tails.passed},
        "vorticity_control": {"empirical": vort.empirical, "analytic": vort.analytic,
                              "passed": vort.passed},
        "note": growth.note,
    }
    click.echo(json.dumps(payload, indent=2))
    if not (growth.passed and tails.passed and vort.passed):
        sys.exit(EXIT_DIAGNOSTIC)


@main.command("oracle-suite")
@click.option("--full", is_flag=True, help="also run the M=16 comparisons")
def oracle_suite_cmd(full):
    """Run every registered brute-force oracle comparison."""
    from .oracles import oracle_suite

    results = oracle_suite("full" if full else "fast")
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} {r.module}.{r.operation} err={r.error:.3e} "
                   f"tol={r.tolerance:.1e} seed={r.seed} [{r.seconds:.1f}s]")
    if failed:
        click.echo(f"{len(failed)} oracle comparison(s) failed", err=True)
        sys.exit(EXIT_DIAGNOSTIC)


@main.command()
@click.argument("directory", type=click.Path(exists=True))
def report(directory):
    """Aggregate an ensemble directory into plot-ready CSV/JSON."""
    from .ensemble import report as report_run

    with _config_errors_exit():
        payload = report_run(directory)
    click.echo(json.dumps(payload["summary"], indent=2, sort_keys=True))
    for name, path in payload["ensemble_csv"].items():
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
