"""Output check for regret CSVs and the behaviour hash compared across commits."""

from __future__ import annotations

import hashlib
import math

CSV_HEADER = "k,ret,vstar,vpi,regret,cum_regret,ms"
GRID_BIAS = 0.02  # oracle grid bias bound on V^pi - V* (README, "Measuring regret")


def check_csv(text: str, episodes: int) -> list[str]:
    """Errors found in one run's CSV; empty when the run is correct.

    Checks the fixed header, one well-formed row per episode in order,
    finite values, ``0 <= vpi <= vstar + GRID_BIAS``, ``regret = vstar - vpi``
    and that ``cum_regret`` is the running sum of ``regret`` (up to the nine
    significant digits the CSV keeps).
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad header {lines[:1]}"]
    if len(lines) - 1 != episodes:
        return [f"{len(lines) - 1} rows for {episodes} episodes"]
    errors = []
    running = abs_sum = 0.0
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        try:
            k = int(fields[0])
            ret, vstar, vpi, regret, cum, ms = (float(x) for x in fields[1:])
        except ValueError:
            errors.append(f"row {i}: malformed {line!r}")
            continue
        if k != i:
            errors.append(f"row {i}: episode index {k}")
        if not all(math.isfinite(v) for v in (ret, vstar, vpi, regret, cum, ms)):
            errors.append(f"row {i}: non-finite value")
            continue
        if not 0.0 <= vpi <= vstar + GRID_BIAS:
            errors.append(f"row {i}: vpi {vpi} outside [0, vstar + {GRID_BIAS}]")
        if abs(regret - (vstar - vpi)) > 1e-8:
            errors.append(f"row {i}: regret {regret} != vstar - vpi")
        running += regret
        abs_sum += abs(regret)
        if abs(cum - running) > 1e-7 * (abs_sum + abs(cum)) + 1e-12:
            errors.append(f"row {i}: cum_regret {cum} != running sum {running}")
        if len(errors) >= 10:
            break
    return errors


def behaviour_sha256(csv_texts) -> str:
    """SHA-256 of the CSVs with the wallclock ``ms`` column removed.

    Equal for equal (config, seed) pairs on any commit that keeps the run's
    behaviour; the input order of the CSVs matters.
    """
    digest = hashlib.sha256()
    for text in csv_texts:
        for line in text.splitlines():
            digest.update(line.rsplit(",", 1)[0].encode())
            digest.update(b"\n")
    return digest.hexdigest()
