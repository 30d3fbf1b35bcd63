"""Variable contexts: the fixed, ordered universe a polynomial lives in.

A context splits its variables into coefficient variables (generating the
base ring, e.g. ``t``) and main variables (the fibration variables, e.g.
``X``, ``Y``).  Exponent vectors are indexed by the concatenation
``coeff_vars + main_vars``; that order also fixes the lexicographic order
used for canonical serialization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import UnknownVariableError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class VarContext:
    coeff_vars: tuple[str, ...]
    main_vars: tuple[str, ...]

    def __post_init__(self):
        names = self.coeff_vars + self.main_vars
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        if not names:
            raise ValueError("a context needs at least one variable")

    # Computed once per context and kept in the instance dict, which the
    # frozen dataclass's ``__eq__`` and ``__hash__`` never read: they compare
    # the two fields only.
    @cached_property
    def variables(self) -> tuple[str, ...]:
        return self.coeff_vars + self.main_vars

    @cached_property
    def nvars(self) -> int:
        return len(self.coeff_vars) + len(self.main_vars)

    @cached_property
    def _indices(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def index(self, name: str) -> int:
        try:
            return self._indices[name]
        except KeyError:
            raise UnknownVariableError(
                f"unknown variable {name!r} in context {self.variables}"
            ) from None

    def is_main(self, name: str) -> bool:
        return name in self.main_vars

    def __repr__(self):
        coeff = ",".join(self.coeff_vars)
        main = ",".join(self.main_vars)
        return f"VarContext([{coeff}][{main}])"
