"""Uniform command reports: one JSON envelope, one human rendering.

Every command emits ``{"schema": 1, "command", "inputs", "result",
"verdict", "timings"}``.  Inputs echo the canonical printed forms of the
objects consumed; the verdict is a boolean for yes/no questions and null
for plain computations; polynomials and matrices are serialized as
canonical strings (matrices row-major).
"""

from __future__ import annotations

import json
from collections import namedtuple


class Report(namedtuple("Report", "command inputs result verdict timings")):
    __slots__ = ()

    def to_json(self):
        return {
            "schema": 1,
            "command": self.command,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "result": self.result,
            "verdict": self.verdict,
            "timings": self.timings,
        }

    def json_text(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def human(self):
        lines = [f"command: {self.command}"]
        for k, v in self.inputs.items():
            lines.append(f"  {k}: {v}")
        for k, v in self.result.items():
            lines.append(_render(k, v, indent="  "))
        if self.verdict is not None:
            lines.append(f"verdict: {'yes' if self.verdict else 'no'}")
        return "\n".join(lines)


def _render(key, value, indent):
    if isinstance(value, dict):
        inner = "\n".join(
            _render(k, v, indent + "  ") for k, v in value.items()
        )
        return f"{indent}{key}:" + (f"\n{inner}" if inner else " {}")
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return f"{indent}{key}: [" + ", ".join(str(v) for v in value) + "]"
        inner = "\n".join(
            _render(f"[{i}]", v, indent + "  ") for i, v in enumerate(value)
        )
        return f"{indent}{key}:\n{inner}"
    if isinstance(value, bool):
        return f"{indent}{key}: {'yes' if value else 'no'}"
    return f"{indent}{key}: {value}"
