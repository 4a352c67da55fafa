"""hot-path-materialisation: serve/executor modules stay array-native.

The workload-generator materialisation trap cost a scale bisect once:
a serve-path call quietly replayed the whole arena action log into
per-user Python dicts.  This rule bans the known materialisation shapes
from the modules that run per query — anything under ``service/`` or
``core/`` — and from ``storage/delta.py``, whose kernels run on every
update acknowledgement and once rebuilt each touched tag through a
``dict(zip(item_ids.tolist(), ...))``:

* ``.tolist()`` — converts an array into a Python list; fine on a k-sized
  top-k slice (annotate it), catastrophic on a corpus-sized array;
* ``dict(zip(...))`` — the classic corpus-sized-dict builder;
* calls into the offline world: ``build_dataset``, and the tagging
  store's whole-log accessors ``actions()`` / ``tags_for_user()`` /
  ``activity()`` on a ``tagging`` receiver.

``QueryWorkloadGenerator`` / ``generate_workload`` used to be banned here
too; since their sampling distributions moved onto
:func:`repro.workload.sampler.generator_distributions` histograms they no
longer materialise the store, so the carve-out is gone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding
from ..registry import LintRule, register_rule
from ._ast_util import dotted_name, self_attr_root

#: Offline-world entry points that have no business in a serve module.
OFFLINE_CALLS = {"build_dataset"}

#: TaggingStore accessors that cost O(actions) per call: ``actions()`` builds
#: one Python object per action and ``tags_for_user()`` masks the whole log
#: (``activity`` stays listed so a per-user scan cannot return to a serve path).
MATERIALISING_ACCESSORS = {"actions", "tags_for_user", "activity"}


@register_rule
class HotPathMaterialisationRule(LintRule):
    rule_id = "hot-path-materialisation"
    description = ("serve/executor and delta-merge modules must not "
                   "materialise corpus-sized Python structures")

    def applies_to(self, module: str) -> bool:
        return ("service/" in module or "core/" in module
                or module.endswith("storage/delta.py"))

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                yield self.finding(
                    context, node.lineno,
                    ".tolist() materialises a Python list in a "
                    "serve/executor module; keep it an array, or annotate "
                    "a k-sized slice with an allow comment")
            elif isinstance(func, ast.Name) and func.id == "dict" \
                    and len(node.args) == 1 \
                    and isinstance(node.args[0], ast.Call) \
                    and isinstance(node.args[0].func, ast.Name) \
                    and node.args[0].func.id == "zip":
                yield self.finding(
                    context, node.lineno,
                    "dict(zip(...)) builds a Python dict pair-by-pair; on "
                    "corpus-sized arrays this defeats the array-native "
                    "serve path")
            else:
                name = dotted_name(func).rsplit(".", 1)[-1]
                if name in OFFLINE_CALLS:
                    yield self.finding(
                        context, node.lineno,
                        f"{name}(...) belongs to the offline build/eval "
                        f"world; serve paths must stay on arena-native "
                        f"structures (see repro.workload.sampler)")
                elif isinstance(func, ast.Attribute) \
                        and func.attr in MATERIALISING_ACCESSORS \
                        and self._is_tagging_receiver(func.value):
                    yield self.finding(
                        context, node.lineno,
                        f".{func.attr}() on a tagging store walks the "
                        f"whole action log per call")

    def _is_tagging_receiver(self, node: ast.AST) -> bool:
        """True for ``<anything>.tagging`` or ``self._tagging`` chains."""
        if isinstance(node, ast.Attribute) and node.attr == "tagging":
            return True
        root = self_attr_root(node)
        return root is not None and "tagging" in root


__all__ = ["HotPathMaterialisationRule", "MATERIALISING_ACCESSORS",
           "OFFLINE_CALLS"]
