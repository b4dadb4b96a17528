"""Exception types shared across the package."""


class CoxeterError(Exception):
    """Base class for every domain error raised by coxkit."""


class MatrixError(CoxeterError):
    """A supplied order table is not a valid Coxeter matrix."""


class AsymmetricEntry(MatrixError):
    def __init__(self, i: int, j: int, left, right):
        self.pair = (i, j)
        super().__init__(
            f"order table is asymmetric at ({i},{j}): m[{i}][{j}]={left!r} "
            f"but m[{j}][{i}]={right!r}"
        )


class DiagonalNotOne(MatrixError):
    def __init__(self, i: int, value):
        self.pair = (i, i)
        super().__init__(f"diagonal entry m[{i}][{i}]={value!r}, must be 1")


class OffDiagonalBelowTwo(MatrixError):
    def __init__(self, i: int, j: int, value):
        self.pair = (i, j)
        super().__init__(
            f"off-diagonal entry m[{i}][{j}]={value!r}, must be >= 2 or inf"
        )


class ClosureBudgetExceeded(CoxeterError):
    """A braid-move closure grew past the fixed word budget."""

    def __init__(self, budget: int, word_length: int):
        self.budget = budget
        self.word_length = word_length
        super().__init__(
            f"braid-move closure exceeded {budget} words while reducing a "
            f"word of length {word_length}; shorten the input"
        )


class SizeBudgetExceeded(CoxeterError):
    """A Cayley-graph enumeration grew past the configured element budget."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(
            f"enumeration exceeded {budget} elements; raise the budget or "
            f"lower the radius"
        )


class NonSphericalSubset(CoxeterError):
    """An operation that needs a finite parabolic subgroup got an infinite one."""

    def __init__(self, members):
        self.members = frozenset(members)
        super().__init__(
            f"generator subset {sorted(self.members)} spans an infinite "
            f"parabolic subgroup"
        )


class NonUniqueMaximum(CoxeterError):
    """Two coset elements tied for the longest length.

    This cannot happen over a finite parabolic subgroup; raising it is a
    defect signal used by the verification suite.
    """


class LengthDecreases(CoxeterError):
    """A coset step was asked for a letter that shortens the base word."""


class NotReducedAt(CoxeterError):
    """An infinite-word prefix stopped being reduced at letter ``index``."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"ray prefix is not reduced at letter {index}")


class HypothesisFailed(CoxeterError):
    """The (T, s0, t0) data do not satisfy the trace hypothesis."""
