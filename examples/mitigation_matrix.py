"""Section V: what actually stops PThammer?

Runs explicit hammering and PThammer against three mitigations —
stock ANVIL (load-address sampling), the paper's proposed extended
ANVIL (also watching page-table-walk fetches), and an in-controller
TRR/TWiCe-style counter — and prints ground-truth flip counts.  The
rows are the ones ``repro mitigations`` prints
(:func:`repro.analysis.mitigation_matrix`).

    python examples/mitigation_matrix.py
"""

from repro.analysis import mitigation_matrix, render_table


def main():
    print("running two explicit-hammer and four PThammer attacks ...")
    print()
    print(
        render_table(
            ["Attack", "Mitigation", "Ground-truth flips"],
            mitigation_matrix(),
            title="Section V: mitigation matrix",
        )
    )
    print()
    print("Stock ANVIL samples load addresses, so the page-table walker's")
    print("DRAM traffic is invisible to it — exactly the paper's warning")
    print('that ANVIL "will have to be extended to also check the L1PTE')
    print('addresses to detect PThammer".')


if __name__ == "__main__":
    main()
