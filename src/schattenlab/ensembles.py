"""Scalar fields, gas-ensemble parameters and the Schatten-ball to ensemble mapping."""

from dataclasses import dataclass

__all__ = [
    "EnsembleParams",
    "SchattenSpec",
    "GasMapping",
    "ensemble_of",
    "BETA",
    "FIELDS",
    "SUBSPACES",
]

FIELDS = ("R", "C", "H")
SUBSPACES = ("Full", "SelfAdjoint", "AntiSymHermitian", "ComplexSymmetric")
BETA = {"R": 1, "C": 2, "H": 4}


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters (a, b, c) of the gas density on R^n.

    The density is prod_{i<j} |x_i^a - x_j^a|^b * prod_i |x_i|^c; the total
    degree d = a*b*n(n-1)/2 + (c+1)*n is always recomputed, never stored.
    """

    a: int
    b: int
    c: int
    n: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.c < 0 or self.n < 1:
            raise ValueError(f"illegal ensemble parameters {(self.a, self.b, self.c, self.n)}")

    @property
    def d(self):
        """Total degree a*b*n(n-1)/2 + (c+1)*n (also the matrix-subspace dimension)."""
        return self.a * self.b * self.n * (self.n - 1) // 2 + (self.c + 1) * self.n

    @property
    def degree(self):
        """Positive-homogeneity degree of the unweighted density, d - n."""
        return self.d - self.n


@dataclass(frozen=True)
class SchattenSpec:
    """A Schatten p-norm unit ball: field, matrix subspace, size n and exponent p.

    p = math.inf is the operator norm and is kept as the exact IEEE infinity,
    never a large float stand-in.
    """

    field: str
    subspace: str
    n: int
    p: float

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if self.subspace not in SUBSPACES:
            raise ValueError(f"unknown subspace {self.subspace!r}")
        if self.subspace in ("AntiSymHermitian", "ComplexSymmetric") and self.field != "C":
            raise ValueError(f"{self.subspace} requires field C, got {self.field}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (self.p >= 1):
            raise ValueError("p must satisfy p >= 1")

    @property
    def beta(self):
        return BETA[self.field]

    @property
    def dim(self):
        """Real dimension of the matrix subspace."""
        n, beta = self.n, self.beta
        if self.subspace == "Full":
            return beta * n * n
        if self.subspace == "SelfAdjoint":
            return n + beta * n * (n - 1) // 2
        if self.subspace == "AntiSymHermitian":
            return n * (n - 1) // 2
        return n * (n + 1)  # ComplexSymmetric


@dataclass(frozen=True)
class GasMapping:
    """Result of mapping a Schatten ball onto its singular-value gas.

    multiplicity counts how often each gas coordinate appears among the matrix
    singular values; signed marks eigenvalue (rather than singular value)
    coordinates; forced_zero records the extra zero singular value of
    odd-size anti-symmetric Hermitian matrices.
    """

    params: EnsembleParams
    multiplicity: int
    signed: bool
    forced_zero: bool


def ensemble_of(spec):
    """Map a SchattenSpec to the (a, b, c) gas on its natural coordinate count.

    Full and ComplexSymmetric matrices keep n gas coordinates, SelfAdjoint uses
    signed eigenvalue coordinates, and AntiSymHermitian reduces to floor(n/2)
    coordinates each counted twice.
    """
    n, beta = spec.n, spec.beta
    if spec.subspace == "Full":
        params = EnsembleParams(a=2, b=beta, c=beta - 1, n=n)
        return GasMapping(params, 1, signed=False, forced_zero=False)
    if spec.subspace == "SelfAdjoint":
        params = EnsembleParams(a=1, b=beta, c=0, n=n)
        return GasMapping(params, 1, signed=True, forced_zero=False)
    if spec.subspace == "ComplexSymmetric":
        params = EnsembleParams(a=2, b=1, c=1, n=n)
        return GasMapping(params, 1, signed=False, forced_zero=False)
    # AntiSymHermitian: i * (real antisymmetric); singular values pair up.
    s, r = divmod(n, 2)
    if s < 1:
        raise ValueError("AntiSymHermitian needs n >= 2")
    params = EnsembleParams(a=2, b=2, c=2 * r, n=s)
    return GasMapping(params, 2, signed=False, forced_zero=bool(r))
