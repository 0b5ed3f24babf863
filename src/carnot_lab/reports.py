"""Result persistence for reproducible experiment runs.

A run produces a ReportBundle: the resolved configuration, the result
payload, the discrepancy-ledger entries the run exercises, and the tool
version. The bundle file is canonical JSON (sorted keys, fixed
separators, repr floats), so identical configurations produce
byte-identical files; volatile run metadata (wall time, timestamp) goes
to a separate ``.meta.json`` sidecar and never into the bundle itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field

TOOL_NAME = "carnot-lab"
TOOL_VERSION = "0.1.0"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass
class ReportBundle:
    command: str
    config: dict
    payload: dict
    ledger_entries: list = field(default_factory=list)
    version: str = TOOL_VERSION
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """Deterministic content (wall time deliberately excluded)."""
        return {
            "tool": TOOL_NAME,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "payload": self.payload,
            "ledger_entries": sorted(self.ledger_entries),
        }

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict())
                              .encode()).hexdigest()


def write_bundle(bundle: ReportBundle, directory):
    """Write ``<command>.bundle.json`` (deterministic) and
    ``<command>.meta.json`` (volatile) under ``directory``; returns the
    bundle path."""
    import os
    os.makedirs(directory, exist_ok=True)
    bundle_path = os.path.join(directory, f"{bundle.command}.bundle.json")
    meta_path = os.path.join(directory, f"{bundle.command}.meta.json")
    with open(bundle_path, "w") as fh:
        fh.write(canonical_json(bundle.to_dict()))
        fh.write("\n")
    meta = {
        "wall_time_s": bundle.wall_time,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "bundle_sha256": bundle.digest(),
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return bundle_path


_BUNDLE_KEYS = ("command", "config", "payload", "ledger_entries", "version")


def read_bundle(path) -> ReportBundle:
    """The bundle written at ``path``; JSON that is not a bundle object
    raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not set(_BUNDLE_KEYS) <= set(data):
        raise ValueError(f"{path} is not a report bundle: expected a JSON "
                         f"object with keys {', '.join(_BUNDLE_KEYS)}")
    return ReportBundle(**{k: data[k] for k in _BUNDLE_KEYS})


# ---------------------------------------------------------------------------
# plot-ready tables

def emit_plot_table(bundle: ReportBundle) -> str:
    """Render a tabular payload as CSV text for external plotting.

    Supported payloads: growth tables (r,count), volume fits
    (log_r,log_volume plus the fitted line), distance surveys
    (pair,lower,value,upper). Anything else, or a table missing entries
    or holding entries of the wrong type, raises ValueError.
    """
    out = io.StringIO()
    payload = bundle.payload

    def emit(rows):
        for row in rows:
            out.write(",".join(str(c) for c in row))
            out.write("\n")

    try:
        if "counts" in payload and "radii" in payload:
            emit([("r", "count")])
            emit(zip(payload["radii"], payload["counts"]))
        elif "exponent" in payload and "volumes" in payload:
            import math
            emit([("log_r", "log_volume", "fit_log_volume")])
            slope = payload["exponent"]
            intercept = payload["intercept"]
            for r, v in zip(payload["radii"], payload["volumes"]):
                lr = math.log(r)
                emit([(lr, math.log(v), intercept + slope * lr)])
        elif "pairs" in payload:
            emit([("pair", "lower", "value", "upper")])
            for i, rec in enumerate(payload["pairs"]):
                emit([(i, rec["lower"], rec["dist"], rec["upper"])])
        else:
            raise ValueError(
                f"payload of {bundle.command!r} has no tabular form")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"payload of {bundle.command!r} has a malformed "
                         f"table: {exc!r}") from exc
    return out.getvalue()
