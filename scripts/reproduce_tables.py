#!/usr/bin/env python3
"""Print every small table the three-cell-window scheme is built on:
the symbol alphabet, the encoding key, the complete-state successor table,
the tail table, and the forbidden-factor automaton with its growth rate.
"""

from lrm.census import factor_automaton, spectral_radius
from lrm.codec import _NEXT_SYMBOL
from lrm.permutations import symbol_table, window_digit
from lrm.states import complete_states, head_permutations, successor, tail_table


def main() -> None:
    table = symbol_table(3)
    print("symbol alphabet (t=3):")
    for symbol in range(1, 7):
        perm = table.permutation(symbol)
        print(f"  s{symbol} = [{','.join(map(str, perm))}]   digit {window_digit(perm)}")

    print("\nencoding key (previous parity class -> digit -> symbol):")
    for parity, row in (("odd", _NEXT_SYMBOL[True]), ("even", _NEXT_SYMBOL[False])):
        cells = "  ".join(f"digit {d}: s{s}" for d, s in sorted(row.items()))
        print(f"  previous {parity}:  {cells}")

    states = sorted(complete_states(3), key=lambda s: s.perm)
    names = {state: f"state {i}" for i, state in enumerate(states, start=1)}
    print("\ncomplete states:")
    for state in states:
        print(f"  {names[state]} = {state.render()}")

    print("\nsuccessor table (rows: state, columns: consumed digit):")
    for state in states:
        row = "  ".join(names[successor(state, d)] for d in range(3))
        print(f"  {names[state]}:  {row}")

    print("\ntail table (distinct cycle-closing digit pairs):")
    tails = tail_table(3)
    for state in states:
        for pi in head_permutations(3):
            row = tails.tails[(state, pi)]
            tail_text = " ".join("".join(map(str, tail)) for tail in sorted(row))
            print(f"  {names[state]}, head [{','.join(map(str, pi))}]: {len(row)}   ({tail_text})")

    pattern = (2, 0, 1, 1)
    automaton = factor_automaton(pattern, 3)
    print(f"\nfactor automaton for {pattern}:")
    for row in automaton.matrix:
        print("  " + "  ".join(map(str, row)))
    print(f"growth rate: {spectral_radius(automaton.matrix):.5f}")


if __name__ == "__main__":
    main()
