"""nilseq: automatic sequences, generalised polynomials, sparse-set structure,
and nilmanifold orbit computations."""

__version__ = "0.1.0"

from .automaton import (  # noqa: F401
    Dfao,
    ReadingOrder,
    BudgetExceeded,
    base_power,
    baum_sweet,
    constant,
    from_prohibited_patterns,
    kernel,
    minimize,
    parse_automaton,
    format_automaton,
    powers_acceptor,
    product,
    pumping_witness,
    reverse_reading,
    thue_morse,
)
from .exactreal import (  # noqa: F401
    ExactReal,
    IntervalValue,
    PrecisionExhausted,
)
from .genpoly import (  # noqa: F401
    GpExpr,
    PrecisionPolicy,
    Seq,
    eval_gp,
    parse_gp,
)
from .sparsity import (  # noqa: F401
    classify,
    growth_census,
    ips_witness,
    normalize_arith_progression,
    very_sparse_decomposition,
)
