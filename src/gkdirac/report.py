"""The one result type every verdict of the package comes back in.

A :class:`Report` holds named boolean ``checks`` whose conjunction is the
verdict, the ``witnesses`` behind them (failure reasons, failing pairs,
points, residuals), and ``stats`` that do not enter the verdict (counts,
ranks, orders, modes, other flags).  Any further keyword is an exact output
of the computation and becomes a plain attribute.
"""
__all__ = ["Report"]

# ``name`` and ``checks`` are positional-only, so passed as keywords they
# land in ``results``; ``witnesses`` and ``stats`` always bind to their
# parameters
_RESERVED = frozenset({"name", "checks", "ok"})


class Report:
    """A named verdict: ``ok`` is ``all(checks.values())``."""

    def __init__(self, name, checks, /, witnesses=None, stats=None,
                 **results):
        if not checks:
            raise ValueError(f"report {name!r} has no checks")
        for key, value in checks.items():
            if not isinstance(value, bool):
                raise TypeError(f"check {key!r} of report {name!r} is a "
                                f"{type(value).__name__}, not a bool")
        clash = sorted(_RESERVED.intersection(results))
        if clash:
            raise ValueError(f"report {name!r}: result names {clash} clash "
                             "with the report's own attributes")
        self.name = name
        self.checks = dict(checks)
        self.witnesses = dict(witnesses or {})
        self.stats = dict(stats or {})
        self.__dict__.update(results)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def __bool__(self):
        return self.ok

    def __repr__(self):
        failing = [k for k, v in self.checks.items() if not v]
        if not failing:
            return f"Report({self.name!r}, ok)"
        return f"Report({self.name!r}, failing={failing})"
