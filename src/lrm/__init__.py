"""Sliding-window local rank modulation over cyclic cell arrays.

n cells are read through cyclic windows of t consecutive cells; each window
contributes one permutation symbol (the base word) and one digit in 0..t-1
(the codeword).  The package covers demodulation, encoding, decoding,
realizability and legality testing, exact and asymptotic enumeration of
legal codewords, and exhaustive search for constant-weight Gray codes in
the two-cell-window case.
"""

from .census import (
    CountReport,
    DEFAULT_PATTERNS,
    FactorAutomaton,
    containing_count,
    count_by_automaton,
    count_by_legality,
    count_by_rankings,
    density_report,
    factor_automaton,
    spectral_radius,
)
from .codec import (
    BaseWord,
    Codeword,
    decode3,
    decode_general,
    demodulate,
    encode,
    is_legal,
    realizable,
    window_consistent,
)
from .graycode import (
    GrayCycle,
    GrayGraph,
    ValidationResult,
    longest_cycle,
    validate_cycle,
    weight_words,
)
from .permutations import (
    SymbolTable,
    apply_push,
    comparable_cells,
    rank_to_permutation,
    symbol_table,
    window_digit,
)
from .states import (
    State,
    TailTable,
    complete_states,
    find_completing_pattern,
    initial_state,
    is_complete,
    pattern_forces_complete,
    reachable_states,
    state_oracle,
    successor,
    tail_table,
)

__version__ = "0.1.0"
