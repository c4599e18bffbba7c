"""Command-line entry point.

Exit codes: 0 on success, 1 on validation errors (usage errors, unreadable,
malformed or invalid input files, an ``--out`` that cannot be created or
written to, mismatched comparison inputs), 2 on runtime errors. Only ``run``
imports the runner, and with it numpy; ``compare`` loads the report module
alone, and ``validate`` the experiment format alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .config import ExperimentFormatError, parse_experiment, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """A usage error is bad input: usage and message on stderr, exit with EXIT_VALIDATION."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oxn", description="Run observability experiments against a simulated microservice mesh."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment file and emit a report")
    run.add_argument("file", help="experiment YAML file")
    run.add_argument("--out", metavar="DIR", help="directory for the report (and CSV exports)")
    run.add_argument("--parallel", type=int, default=1, metavar="N", help="concurrent runs (N >= 1)")
    run.add_argument("--export-csv", action="store_true", help="write per-run response/span CSV files")
    run.add_argument(
        "--frozen-clock",
        action="store_true",
        help="omit wall-clock metadata so repeated runs are byte-identical",
    )

    compare = sub.add_parser("compare", help="diff two experiment reports")
    compare.add_argument("report_a", help="baseline report JSON")
    compare.add_argument("report_b", help="alternative report JSON")

    check = sub.add_parser("validate", help="parse and validate an experiment file")
    check.add_argument("file", help="experiment YAML file")
    return parser


def _fail(message: str) -> NoReturn:
    """Reject bad input: print ``message`` and exit with EXIT_VALIDATION."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _read_input(path: str) -> str:
    """The text of an input file; one that cannot be read as UTF-8 text is
    rejected with its path named."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        _fail(f"no such file: {path}")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(f"cannot read {path}: {exc}")


def _load_spec(path: str):
    text = _read_input(path)
    try:
        return parse_experiment(text)
    except ExperimentFormatError as exc:
        _fail(str(exc))


def _cmd_run(args) -> int:
    from .report import report_json
    from .runner import ExperimentError, run_experiment

    if args.parallel < 1:
        _fail(f"--parallel must be >= 1, got {args.parallel}")
    spec = _load_spec(args.file)
    violations = validate(spec)
    if violations:
        for violation in violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out) if args.out else None
    export_dir = out_dir / "csv" if (out_dir and args.export_csv) else None
    if args.export_csv and out_dir is None:
        _fail("--export-csv requires --out")
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail(f"cannot create --out {out_dir}: {exc.strerror or exc}")
    try:
        report = run_experiment(
            spec,
            parallel=args.parallel,
            export_dir=export_dir,
            frozen_clock=args.frozen_clock,
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    text = report_json(report)
    if out_dir is not None:
        report_path = out_dir / f"{spec.name}_report.json"
        try:
            report_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            _fail(f"cannot write {report_path}: {exc.strerror or exc}")
        for fault, ratio in report.matrix.fault_coverage.items():
            print(f"fault_coverage {fault}: {ratio}")
        print(f"ofo: {report.matrix.ofo}")
        print(f"report: {report_path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .report import compare_docs

    docs = []
    for path in (args.report_a, args.report_b):
        text = _read_input(path)
        try:
            docs.append(json.loads(text))
        except json.JSONDecodeError as exc:
            _fail(f"{path} is not valid JSON: {exc}")
    try:
        comparison = compare_docs(docs[0], docs[1])
    except ValueError as exc:
        _fail(str(exc))
    sys.stdout.write(json.dumps(comparison, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = _load_spec(args.file)
    violations = validate(spec)
    if violations:
        for violation in violations:
            print(f"invalid: {violation}")
        return EXIT_VALIDATION
    print(f"ok: {spec.name}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return {"run": _cmd_run, "compare": _cmd_compare, "validate": _cmd_validate}[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
