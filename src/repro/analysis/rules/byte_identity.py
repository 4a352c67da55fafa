"""byte-identity: arena/stream writers must be layout-deterministic.

The arena byte-identity gates (streaming build == in-memory build, bit for
bit) only hold if every array the writers allocate has an explicit dtype
(a platform-default ``int`` array is 32-bit on some platforms and 64-bit
on others) and every order-defining sort is ``kind="stable"`` (the default
introsort's tie order is an implementation detail numpy is free to
change).  This rule enforces both, scoped to the writer modules — any
module whose file name mentions ``arena`` or ``stream``.

``np.asarray``/``np.ascontiguousarray`` are exempt: they preserve their
input's dtype.  ``np.lexsort`` is exempt: it is always stable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import LintRule, register_rule
from ._ast_util import dotted_name, has_keyword

#: numpy constructors whose default dtype is platform- or input-dependent.
CONSTRUCTORS = {"array", "zeros", "ones", "empty", "full", "arange",
                "fromiter"}

#: How many positional arguments place a dtype for each constructor.
_POSITIONAL_DTYPE_AT = {"array": 2, "zeros": 2, "ones": 2, "empty": 2,
                        "full": 3, "fromiter": 2}

SORTS = {"sort", "argsort"}


@register_rule
class ByteIdentityRule(LintRule):
    rule_id = "byte-identity"
    description = ("arena/stream writer modules must pass explicit dtype= "
                   "to array constructors and kind=\"stable\" to sorts")

    def applies_to(self, module: str) -> bool:
        name = module.rsplit("/", 1)[-1]
        return "arena" in name or "stream" in name

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("np." + c for c in CONSTRUCTORS) \
                    or name in ("numpy." + c for c in CONSTRUCTORS):
                yield from self._check_constructor(context, node, name)
            elif name in {"np.sort", "np.argsort", "numpy.sort",
                          "numpy.argsort"}:
                yield from self._check_sort(context, node, name)
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "argsort":
                # method call on an array expression: x[...].argsort()
                # (.sort() is left alone: list.sort is already stable and
                # the writers never sort ndarrays in place)
                yield from self._check_sort(context, node, ".argsort")

    def _check_constructor(self, context: ModuleContext, call: ast.Call,
                           name: str) -> Iterator[Finding]:
        short = name.rsplit(".", 1)[-1]
        if has_keyword(call, "dtype"):
            return
        if len(call.args) >= _POSITIONAL_DTYPE_AT.get(short, 99):
            return
        yield self.finding(
            context, call.lineno,
            f"{name}(...) without an explicit dtype= — platform-default "
            f"dtypes break arena byte-identity; say dtype=np.int64 (or "
            f"float64/bool) explicitly")

    def _check_sort(self, context: ModuleContext, call: ast.Call,
                    name: str) -> Iterator[Finding]:
        if has_keyword(call, "kind"):
            return
        yield self.finding(
            context, call.lineno,
            f"{name}(...) without kind=\"stable\" — the default sort's tie "
            f"order is not guaranteed across numpy versions, which breaks "
            f"arena byte-identity")


__all__ = ["ByteIdentityRule", "CONSTRUCTORS", "SORTS"]
