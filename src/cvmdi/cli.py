"""Command-line front end.

Subcommands: keyrate | sweep | maxdist | optnoise | compare.
``compare`` tabulates every detector preset unless the config file or
``--detector`` names one.  ``keyrate``, ``sweep`` and ``maxdist`` optimise
chi_n when the squeezed-modified protocol is given none (``--chi-n``
unset or 'optimize'); a ``chi-n`` sweep gives it at each point.  Only
that protocol takes added noise: a number for ``--chi-n`` with another
protocol, or on a ``chi-n`` sweep, exits 2.  The protocol, geometry and
detector names, and the geometry's max-distance mode, are the library's
(``protocols.PROTOCOLS``, ``analysis.GEOMETRY_MODES``,
``analysis.DETECTOR_PRESETS``).
Configuration comes from defaults, an optional JSON config file, and
flags, in increasing precedence.  ``READS`` names the settings each
subcommand reads; any other setting, given as a flag or as a config key,
exits 2 before anything is computed.  A read that depends on another
setting still counts: ``maxdist`` reads ``l_bc`` only in the asymmetric
geometry, and ``sweep`` reads the lengths its variable does not scan.
All subcommands share one argparse parent, so ``--help`` lists every
flag and each subcommand's description names the settings it reads;
per-command parsers would double the cost of building the parser, which
every call pays.  Outputs are deterministic CSV or JSON tables.  Every
subcommand's metadata is one flat record, the resolved values of the
settings it read with ``tool_version`` (``_resolved_echo``).

Every table is written by ``_write`` from rows of JSON-shaped dicts.  The
headers are spelled in three constants: REPORT_COLUMNS (one key-rate
report; ``sweep`` puts ``x_<unit>`` in front of it and ``optnoise``
``chi_n_star_snu,K_star_bits``), MAXDIST_COLUMNS and COMPARE_COLUMNS.
CSV is a ``# config`` line, the header and one line per row, with a cell
quoted only when it holds a comma or a quote (an error row's flags).  JSON is
``{"metadata", "rows"}`` for keyrate, sweep and compare, and
``{"metadata", "result"}`` holding the single row for maxdist and
optnoise; every number in a row is rounded to ``precision`` significant
digits, 1 to 17, in both formats.

Exit codes: 0 success, 2 configuration error, 3 numeric or physicality
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .analysis import (
    DETECTOR_PRESETS,
    GEOMETRY_MODES,
    VARIANCE_PRESETS,
    SweepSpec,
    at_geometry,
    compare_protocols,
    key_rate_at_best_noise,
    max_distance,
    optimize_added_noise,
    sweep,
)
from .errors import CVMDIError, InvalidParameterError, NumericDomainError
from .protocols import PROTOCOLS, AddedNoiseParams, KeyRateReport, ProtocolParams, key_rate

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULTS = {
    "protocol": "squeezed",
    "variance": "ideal",
    "detector": "perfect",
    "v_a": None,            # filled from variance preset unless given
    "v_b": None,
    "l_ac": 0.0,
    "l_bc": 0.0,
    "alpha": 0.2,
    "eps1": 0.002,
    "eps2": 0.002,
    "eta": None,            # filled from detector preset unless given
    "v_el": None,
    "beta": 1.0,
    "gain": "optimize",
    "chi_n": "optimize",
    "geometry": "symmetric",
    "sweep": None,          # {"variable":..., "start":..., "stop":..., "step":...}
    "tol_km": 0.05,
    "format": "csv",
    "out": None,
    "precision": 9,
}

_ALL = frozenset(DEFAULTS)
# the settings each subcommand reads: its rows change with each of them
READS = {
    "keyrate": _ALL - {"geometry", "tol_km", "sweep"},
    "sweep": _ALL - {"geometry", "tol_km"},
    "maxdist": _ALL - {"l_ac", "sweep"},  # the scanned length
    "optnoise": _ALL - {"chi_n", "geometry", "tol_km", "sweep"},
    "compare": _ALL - {"protocol", "eta", "v_el", "l_ac", "l_bc", "chi_n", "sweep"},
}
_DESCRIPTIONS = {c: f"Reads {', '.join(sorted(r))}; any other setting exits 2."
                 for c, r in READS.items()}  # each subcommand's --help
_SWEEP_KEYS = {"variable", "start", "stop", "step"}

REPORT_COLUMNS = ["I_AB_bits", "chi_BE_bits", "K_bits",
                  "lambda1", "lambda2", "lambda3", "lambda4", "lambda5",
                  "gain", "chi_N_snu", "flags"]
MAXDIST_COLUMNS = ["l_star_km", "l_ab_km", "mode", "positive_at_origin", "capped", "tol_km"]
COMPARE_COLUMNS = ["protocol", "detector", "l_bc_km", "l_star_km", "l_ab_km",
                   "positive_at_origin", "capped"]

X_UNITS = {"distance-symmetric": "km", "lac-with-fixed-lbc": "km", "chi-n": "snu"}
OPTIMIZE = {"optimize": None}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise InvalidParameterError(f"config {path} must hold a JSON object")
    return data


def _merge(args: argparse.Namespace) -> dict:
    """The settings the command reads: DEFAULTS overlaid by the config file,
    then by the flags.  Any other setting given exits 2."""
    given = load_config(args.config) if args.config else {}
    given.update({k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None})
    unread = sorted(set(given) - READS[args.command])
    if unread:
        raise InvalidParameterError(f"{args.command} does not read {', '.join(map(repr, unread))}")
    # compare runs every detector preset unless given one
    defaults = {**DEFAULTS, "detector": None} if args.command == "compare" else DEFAULTS
    return {k: given.get(k, defaults[k]) for k in READS[args.command]}


def _num(cfg: dict, key: str, names: dict | None = None) -> float | None:
    """cfg[key] as a finite float, or names[cfg[key]] when it is one of the names."""
    val = cfg[key]
    if names and isinstance(val, str) and val in names:
        return names[val]
    try:
        x = math.nan if isinstance(val, bool) else float(val)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        choices = "".join(f" or {n!r}" for n in names or ())
        raise InvalidParameterError(f"{key} must be a finite number{choices}, got {val!r}")
    return x


def _choice(cfg: dict, key: str, choices) -> str:
    if not isinstance(cfg[key], str) or cfg[key] not in choices:
        raise InvalidParameterError(f"{key} must be one of {sorted(choices)}, got {cfg[key]!r}")
    return cfg[key]


def _resolve(cfg: dict) -> tuple[ProtocolParams, AddedNoiseParams | None]:
    """Checks every setting but the sweep block and tol_km, which the
    commands that read them parse, then returns the parameter point and its
    fixed added noise, None when chi_n is 'optimize'.  A setting that cfg
    lacks takes its default.
    """
    cfg = {**DEFAULTS, **cfg}
    _choice(cfg, "format", ("csv", "json"))
    _choice(cfg, "geometry", GEOMETRY_MODES)
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise InvalidParameterError(f"out must be a path, got {cfg['out']!r}")
    # a double holds at most 17 significant digits; more would print its
    # binary expansion as if it were significant
    if type(cfg["precision"]) is not int or not 1 <= cfg["precision"] <= 17:
        raise InvalidParameterError(
            f"precision must be an integer from 1 to 17, got {cfg['precision']!r}")
    variance = _num(cfg, "variance", VARIANCE_PRESETS)
    eta, v_el = DETECTOR_PRESETS[_choice(cfg, "detector", DETECTOR_PRESETS)]

    def given(key: str, preset: float) -> float:
        return preset if cfg[key] is None else _num(cfg, key)

    params = ProtocolParams(
        v_a=given("v_a", variance), v_b=given("v_b", variance),
        l_ac=_num(cfg, "l_ac"), l_bc=_num(cfg, "l_bc"),
        alpha=_num(cfg, "alpha"),
        eps1=_num(cfg, "eps1"), eps2=_num(cfg, "eps2"),
        eta=given("eta", eta), v_el=given("v_el", v_el), beta=_num(cfg, "beta"),
        gain=_num(cfg, "gain", OPTIMIZE), protocol=cfg["protocol"],
    )
    chi_n = _num(cfg, "chi_n", OPTIMIZE)
    return params, None if chi_n is None else AddedNoiseParams.from_chi_n(chi_n)


def _resolved_echo(cfg: dict, params: ProtocolParams) -> dict:
    resolved = {"v_a": params.v_a, "v_b": params.v_b, "eta": params.eta, "v_el": params.v_el}
    return {**{k: resolved.get(k, v) for k, v in cfg.items()}, "tool_version": __version__}


def _report(report: KeyRateReport) -> dict:
    return {
        "I_AB_bits": report.mutual_info,
        "chi_BE_bits": report.holevo,
        "K_bits": report.key_rate,
        "lambdas": list(report.lambdas),
        "gain": report.gain_used,
        "chi_N_snu": report.chi_n,
        "flags": list(report.flags),
    }


def _rounded(value, digits: int):
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v, digits) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(f"{value:.{digits}g}")
    return value


def _cells(row: dict) -> dict:
    """A row flattened for CSV: report inlined, lambdas spread, flags joined."""
    cells = dict(row)
    cells.update(cells.pop("report", {}))
    for i, lam in enumerate(cells.pop("lambdas", ()), start=1):
        cells[f"lambda{i}"] = lam
    if "flags" in cells:
        cells["flags"] = ";".join(cells["flags"])
    if "error" in cells:
        cells["flags"] = f"error:{cells.pop('error')}"
    return cells


def _sig(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.{digits}g}"


def _write(cfg: dict, params: ProtocolParams, columns: list[str], rows: list[dict],
           key: str = "rows"):
    """Writes rows as CSV or JSON under the resolved configuration of cfg and
    params; key 'result' writes the single row as JSON 'result'."""
    meta = _resolved_echo(cfg, params)
    digits = cfg["precision"]
    if cfg["format"] == "json":
        rows = _rounded(rows, digits)
        payload = {"metadata": meta, key: rows if key == "rows" else rows[0]}
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    else:
        flat = json.dumps(meta, sort_keys=True, separators=(",", ":"), default=str)
        buf = io.StringIO()
        buf.write(f"# config {flat}\n")
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_sig(cells.get(c), digits) for c in columns] for cells in map(_cells, rows))
        text = buf.getvalue()
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write {cfg['out']}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_keyrate(cfg: dict) -> int:
    params, noise = _resolve(cfg)
    report = key_rate_at_best_noise(params, noise)
    _write(cfg, params, REPORT_COLUMNS, [_report(report)])
    return 0


def cmd_sweep(cfg: dict) -> int:
    params, noise = _resolve(cfg)
    block = cfg["sweep"]
    if not isinstance(block, dict) or set(block) != _SWEEP_KEYS:
        raise InvalidParameterError("sweep needs a 'sweep' config object with the keys "
                                    f"variable, start, stop and step, got {block!r}")
    spec = SweepSpec(block["variable"], start=_num(block, "start"), stop=_num(block, "stop"),
                     step=_num(block, "step"), base=params, noise=noise)
    result = sweep(spec)
    x = f"x_{X_UNITS[spec.variable]}"
    rows = [{x: r.x, **(_report(r.report) if r.report else {"error": r.error})}
            for r in result.rows]
    _write(cfg, params, [x, *REPORT_COLUMNS], rows)
    return 0


def cmd_maxdist(cfg: dict) -> int:
    params, noise = _resolve(cfg)
    geometry = cfg["geometry"]
    res = max_distance(at_geometry(params, geometry), mode=GEOMETRY_MODES[geometry],
                       noise=noise, tol_km=_num(cfg, "tol_km"))
    _write(cfg, params, MAXDIST_COLUMNS, [asdict(res)], key="result")
    return 0


def cmd_optnoise(cfg: dict) -> int:
    params, _ = _resolve(cfg)
    chi_star, k_star = optimize_added_noise(params)
    report = key_rate(params, AddedNoiseParams.from_chi_n(chi_star))
    row = {"chi_n_star_snu": chi_star, "K_star_bits": k_star, "report": _report(report)}
    _write(cfg, params, ["chi_n_star_snu", "K_star_bits", *REPORT_COLUMNS], [row], key="result")
    return 0


def cmd_compare(cfg: dict) -> int:
    detector = cfg["detector"]
    params, _ = _resolve({**cfg, "detector": "perfect" if detector is None else detector})
    table = compare_protocols(params, geometry=cfg["geometry"], tol_km=_num(cfg, "tol_km"),
                              detectors=DETECTOR_PRESETS if detector is None else (detector,))
    _write(cfg, params, COMPARE_COLUMNS, [asdict(r) for r in table.rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmdi",
        description="Key-rate analysis for continuous-variable MDI QKD with squeezed states")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--protocol", choices=PROTOCOLS)
    common.add_argument("--geometry", choices=GEOMETRY_MODES)
    common.add_argument("--detector", choices=DETECTOR_PRESETS)
    common.add_argument("--variance", help="'ideal', 'realistic', or a number (shot-noise units)")
    common.add_argument("--lac", dest="l_ac", type=float, metavar="KM",
                        help="Alice-relay channel length")
    common.add_argument("--lbc", dest="l_bc", type=float, metavar="KM",
                        help="Bob-relay channel length")
    common.add_argument("--chi-n", dest="chi_n", metavar="X|optimize",
                        help="trusted added noise (snu) or 'optimize'")
    common.add_argument("--gain", metavar="G|optimize", help="displacement gain or 'optimize'")
    common.add_argument("--beta", type=float, help="reconciliation efficiency in [0, 1]")
    common.add_argument("--format", choices=["csv", "json"])
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    common.add_argument("--tol-km", dest="tol_km", type=float, metavar="X",
                        help="distance bisection tolerance")
    for name, fn in (("keyrate", cmd_keyrate), ("sweep", cmd_sweep),
                     ("maxdist", cmd_maxdist), ("optnoise", cmd_optnoise),
                     ("compare", cmd_compare)):
        p = sub.add_parser(name, parents=[common], description=_DESCRIPTIONS[name])
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_merge(args))
    except NumericDomainError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CVMDIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
