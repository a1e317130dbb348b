"""Row checker: grades every output row against the acceptance suite's oracles.

Each row either passes or is reported with the names of the checks it missed.
Known defects are counted like any other miss, never filtered out.

underdamped (``washboard transport``)
    error       the error column is empty
    finite      U and D_primary are finite
    dual_D      |D_primary - D_ibp| <= 1e-6 * D_L, D_L = 1/(beta gamma)
                (criterion 4's bar)
    top_level   top_level_ratio and top_level_ratio_phi <= 1e-6
                (criterion 13's bar)
series (``washboard expand``)
    error       the error column is empty
    finite      every U_* / D_* column is finite
    einstein    at F = 0, D_spectral equals the series' order-0 D (V_1/beta)
                within 1e-6 relative (criterion 3's bar)
mc (``washboard mc``)
    error       the error column is empty
    finite      U_hat, D_hat and their standard errors are finite
    mc_U, mc_D  within 4 standard errors of solve_transport at N=128,
                adaptive (criterion 12)

Every kind also checks that the rows carry the forces they were asked for
(``inputs``); a missing row is a failed row.
"""

from __future__ import annotations

import math

DUAL_D_BAR = 1e-6
TOP_LEVEL_BAR = 1e-6
EINSTEIN_BAR = 1e-6
MC_SIGMAS = 4.0


def parse_csv(text: str) -> list[dict]:
    """Rows of a CSV written by ``washboard``; floats where possible.

    The CLI does not quote fields, so an error message holding commas spills
    into the next fields; those tokens are joined back into ``error``.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    err = header.index("error") if "error" in header else None
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        extra = len(toks) - len(header)
        if extra > 0 and err is not None:
            toks[err:err + extra + 1] = [",".join(toks[err:err + extra + 1])]
        row = {}
        for key, tok in zip(header, toks):
            try:
                row[key] = float(tok) if key != "error" and tok != "" else tok
            except ValueError:
                row[key] = tok
        rows.append(row)
    return rows


def _finite(row: dict, keys) -> bool:
    return all(isinstance(row.get(k), float) and math.isfinite(row[k]) for k in keys)


def _le(x, bar: float) -> bool:
    """x <= bar, with a missing or non-numeric x failing (NaN fails too)."""
    return isinstance(x, float) and x <= bar


def _check_transport(row: dict, meta: dict, oracle) -> list[str]:
    missed = []
    if not _finite(row, ("U", "D_primary")):
        missed.append("finite")
    d_l = 1.0 / (meta["beta"] * meta["gamma"])
    gap = (abs(row["D_primary"] - row["D_ibp"])
           if _finite(row, ("D_primary", "D_ibp")) else math.nan)
    if not _le(gap, DUAL_D_BAR * d_l):
        missed.append("dual_D")
    if not (_le(row.get("top_level_ratio"), TOP_LEVEL_BAR)
            and _le(row.get("top_level_ratio_phi"), TOP_LEVEL_BAR)):
        missed.append("top_level")
    return missed


def _check_expand(row: dict, meta: dict, oracle) -> list[str]:
    missed = []
    series = [k for k in row if k.startswith(("U_", "D_"))]
    if not _finite(row, series):
        missed.append("finite")
    if row.get("F") == 0.0:
        full = sorted((k for k in row if k.startswith("D_full_order_")),
                      key=lambda k: int(k.rsplit("_", 1)[1]))
        d0 = row.get(full[0]) if full else None
        ok = (_finite(row, ("D_spectral",)) and isinstance(d0, float) and d0 != 0.0
              and abs(row["D_spectral"] - d0) <= EINSTEIN_BAR * abs(d0))
        if not ok:
            missed.append("einstein")
    return missed


def _check_mc(row: dict, meta: dict, oracle) -> list[str]:
    if not _finite(row, ("U_hat", "D_hat", "stderr_U", "stderr_D")):
        return ["finite"]
    missed = []
    if not abs(row["U_hat"] - oracle["U"]) <= MC_SIGMAS * row["stderr_U"]:
        missed.append("mc_U")
    if not abs(row["D_hat"] - oracle["D"]) <= MC_SIGMAS * row["stderr_D"]:
        missed.append("mc_D")
    return missed


_CHECKS = {"transport": _check_transport, "expand": _check_expand, "mc": _check_mc}
_FORCE_COL = {"transport": "F", "expand": "F", "mc": "force"}


def grade(command: str, rows: list[dict], forces, meta: dict,
          oracles=None) -> list[tuple[str, list[str]]]:
    """(row label, missed checks) for every requested force, in sweep order.

    ``oracles`` gives the reference {"U", "D"} for each force of an mc call.
    """
    out = []
    for i, force in enumerate(forces):
        label = f"F={force:.6g}"
        if "fc" in meta:
            label += f" ({force / meta['fc']:.3g} F_c)"
        row = rows[i] if i < len(rows) else None
        got = row.get(_FORCE_COL[command]) if row else None
        matches = (isinstance(got, float)
                   and abs(got - force) <= 1e-9 * max(1.0, abs(force)))
        # a point that raised leaves only its error column, without F
        if row is None or not (matches or (got == "" and row.get("error"))):
            out.append((label, ["inputs"]))
            continue
        missed = ["error"] if row.get("error") else []
        oracle = oracles[i] if oracles else None
        missed += _CHECKS[command](row, meta, oracle)
        out.append((label, missed))
    for j in range(len(forces), len(rows)):
        out.append((f"extra row {j}", ["inputs"]))
    return out
