"""repro — a reproduction of *Reversible Fault-Tolerant Logic*.

This package reimplements, from scratch, the system described in
P. O. Boykin and V. P. Roychowdhury, "Reversible Fault-Tolerant Logic"
(DSN 2005, arXiv:cs/0504010):

* :mod:`repro.core` — reversible gates, circuits, and simulators;
* :mod:`repro.noise` — the independent gate-failure model, exhaustive
  fault injection, and a vectorised Monte-Carlo engine;
* :mod:`repro.coding` — the 3-bit repetition code, the majority
  multiplexing error-recovery circuit (Figure 2), transversal logical
  gates, and the concatenation compiler (Figure 3);
* :mod:`repro.local` — near-neighbour variants: the 2D tile layout
  (Figure 4), SWAP routing, interleaving schedules (Figure 6), and the
  fully 1D recovery circuit (Figure 7);
* :mod:`repro.analysis` — closed-form thresholds, error-rate
  recursions, blow-up factors, and the entropy-dissipation bounds of
  Section 4;
* :mod:`repro.baselines` — the unprotected circuit model and a von
  Neumann NAND-multiplexing baseline;
* :mod:`repro.runtime` — the declarative execution layer: frozen
  :class:`~repro.runtime.RunSpec` points, the environment-hydrated
  :class:`~repro.runtime.ExecutionPolicy`, and an
  :class:`~repro.runtime.Executor` that batches points sharing a
  compiled circuit into one stacked group of bitplane windows;
* :mod:`repro.harness` — statistics, sweeps, pseudo-threshold search,
  and the experiment registry that maps every table and figure of the
  paper to reproduction code.

Quickstart::

    from repro.core import run
    from repro.coding import recovery_circuit, OUTPUT_WIRES

    circuit = recovery_circuit()            # Figure 2, nine wires
    noisy_codeword = (1, 0, 1)              # logical 1 with one flip
    output = run(circuit, noisy_codeword + (0,) * 6)
    logical = tuple(output[w] for w in OUTPUT_WIRES)
    assert logical == (1, 1, 1)             # the error was corrected
"""

from repro._version import __version__

__all__ = ["__version__"]
