"""In-memory spans around the program's public functions.

Wrappers replace module attributes found through ``sys.modules``: the
package binds the function ``switchgp.model.fit`` as ``switchgp.fit``, so
``import switchgp.fit`` would hand back that function, not the submodule.
Each module attribute is looked up by its callers at call time, so a wrapper
sees every call routed through that name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    """Records (op, name, parent, start, end) spans while installed."""

    def __init__(self, targets):
        # targets: (module name, attribute, span name) triples
        self.targets = list(targets)
        self.spans = []
        self.fired = Counter()
        self.op = -1
        self._stack = []
        self._saved = []
        self._wrappers = {}
        for module, attr, name in self.targets:
            original = getattr(sys.modules[module], attr)
            self._wrappers[module, attr] = (original, self._wrap(name, original))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self.op, name, parent, start, end)
                self.fired[name] += 1

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for (module, attr), (_, wrapper) in self._wrappers.items():
            setattr(sys.modules[module], attr, wrapper)

    def uninstall(self) -> None:
        for (module, attr), (original, _) in self._wrappers.items():
            setattr(sys.modules[module], attr, original)

    def silent(self) -> list:
        """Span names whose wrapper never fired."""
        return [name for _, _, name in self.targets if self.fired[name] == 0]

    def per_op(self, name: str, ops) -> list:
        """Summed seconds and call count of ``name`` for each op in ``ops``."""
        secs = {op: 0.0 for op in ops}
        calls = {op: 0 for op in ops}
        for op, span, _, start, end in self.spans:
            if span == name and op in secs:
                secs[op] += end - start
                calls[op] += 1
        return [(secs[op], calls[op]) for op in ops]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (op, name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "op": op, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
