"""Common infrastructure for CiM cell designs.

A *cell design* knows how to attach its devices (FeFET + companions) between
the shared array lines (BL, SL, WL) and a per-cell output node.  The same
``attach`` method serves three contexts:

1. standalone DC measurement of the cell output current (Figs. 3 and 7),
2. standalone read transients charging the cell capacitor C_o,
3. full MAC rows built by :mod:`repro.array.row`.

Bias values follow Sec. III-B of the paper: BL = 1.2 V, SL = 0.2 V, and the
word line carries 0.35 V for input '1' (0 V for '0').  The saturation-region
baseline overrides the WL-on voltage to 1.3 V.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace

from repro.circuit import Circuit, VoltageSource, dc_operating_point, transient_simulation
from repro.circuit.elements import Capacitor
from repro.devices.variation import CellVariation


@dataclass(frozen=True)
class ArrayBias:
    """Static line biases used during the MAC (read) operation."""

    v_bl: float = 1.2
    v_sl: float = 0.2
    v_wl_on: float = 0.35
    v_wl_off: float = 0.0

    def wl_voltage(self, input_bit):
        """Word-line voltage encoding a binary input."""
        return self.v_wl_on if input_bit else self.v_wl_off


@dataclass(frozen=True)
class CellNodes:
    """Node names a cell instance is wired to.

    ``aux`` maps auxiliary supply names (e.g. the cascode bias of the
    1FeFET-1T cell) to node names; the builder creates one shared source per
    auxiliary supply.
    """

    bl: str
    sl: str
    wl: str
    out: str
    aux: dict = field(default_factory=dict)


class CiMCellDesign(abc.ABC):
    """Interface every CiM cell design implements."""

    #: Human-readable design name (used in reports and benchmarks).
    name = "abstract-cell"

    #: Line biases during MAC; designs override (e.g. saturation read).
    bias = ArrayBias()

    #: Default cell output capacitor C_o, farads.
    co_farads = 0.5e-15

    #: Read (charging) window before the EN switch fires, seconds.
    t_read = 6.0e-9

    #: Default probe voltage for DC output-current measurements, volts.
    v_probe = 0.0

    @abc.abstractmethod
    def attach(self, circuit, prefix, nodes, weight_bit, variation=None):
        """Add this cell's devices to ``circuit``.

        Parameters
        ----------
        circuit:
            Target :class:`repro.circuit.Circuit`.
        prefix:
            Unique element-name prefix for this cell instance.
        nodes:
            :class:`CellNodes` with the line/output node names.
        weight_bit:
            Stored weight (truthy = low-V_TH = '1'); the FeFET is programmed
            with the paper's pulse scheme during attachment.
        variation:
            Optional :class:`repro.devices.variation.CellVariation` with
            per-instance threshold offsets.
        """

    def aux_supplies(self):
        """Mapping of auxiliary supply name -> voltage (empty by default)."""
        return {}


#: Fixed backward-Euler timestep of a read transient, seconds.
READ_DT = 0.05e-9


def _build_standalone(design, weight_bit, input_bit, variation, v_out_probe):
    """Single-cell circuit with all lines driven and OUT handled per-probe."""
    bias = design.bias
    circuit = Circuit(f"{design.name}-cell")
    circuit.add(VoltageSource("VBL", "bl", "0", bias.v_bl))
    circuit.add(VoltageSource("VSL", "sl", "0", bias.v_sl))
    circuit.add(VoltageSource("VWL", "wl", "0", bias.wl_voltage(input_bit)))
    aux_nodes = {}
    for aux_name, aux_voltage in design.aux_supplies().items():
        node = f"aux_{aux_name}"
        circuit.add(VoltageSource(f"V{aux_name.upper()}", node, "0", aux_voltage))
        aux_nodes[aux_name] = node
    nodes = CellNodes(bl="bl", sl="sl", wl="wl", out="out", aux=aux_nodes)
    design.attach(circuit, "cell", nodes, weight_bit, variation)
    if v_out_probe is not None:
        circuit.add(VoltageSource("VPROBE", "out", "0", v_out_probe))
    return circuit


def cell_output_current(design, temp_c, *, weight_bit=1, input_bit=1,
                        variation=None, v_probe=None):
    """DC output current of a single cell with OUT clamped at a probe voltage.

    This is the quantity plotted in the paper's Figs. 3 and 7: the current
    the cell delivers into its output capacitor under fixed input voltages.
    The probe source acts as an ideal integrator virtual ground at
    ``v_probe`` (defaulting to the design's representative operating point).
    Positive values flow *into* the output node.
    """
    if v_probe is None:
        v_probe = design.v_probe
    variation = variation or CellVariation.nominal()
    circuit = _build_standalone(design, weight_bit, input_bit, variation, v_probe)
    op = dc_operating_point(circuit, temp_c=temp_c)
    return op.branch_current("VPROBE")


def read_circuit(design, *, weight_bit=1, input_bit=1, variation=None,
                 co_farads=None):
    """The single-cell read circuit: the standalone cell charging ``C_o``.

    Every read transient — scalar, batched over a design grid, or the MAC
    unit's calibration ensemble — solves this circuit, so they all share
    one topology and one set of element values.
    """
    variation = variation or CellVariation.nominal()
    circuit = _build_standalone(design, weight_bit, input_bit, variation, None)
    circuit.add(Capacitor("CO", "out", "0",
                          design.co_farads if co_farads is None else co_farads))
    return circuit


def cell_read_transient(design, temp_c, *, weight_bit=1, input_bit=1,
                        variation=None, co_farads=None, t_read=None, dt=READ_DT):
    """Simulate the read (charging) transient of a single cell.

    The cell output charges its capacitor ``C_o`` from 0 V for the read
    window; the returned :class:`TransientResult` exposes the ``out``
    waveform and per-source energy.
    """
    circuit = read_circuit(design, weight_bit=weight_bit, input_bit=input_bit,
                           variation=variation, co_farads=co_farads)
    window = design.t_read if t_read is None else t_read
    return transient_simulation(circuit, t_stop=window, dt=dt, temp_c=temp_c,
                                initial_conditions={"out": 0.0})


def cell_read_transient_batch(cases, *, weight_bit=1, input_bit=1,
                              variation=None, co_farads=None, t_read=None,
                              dt=READ_DT):
    """Batched :func:`cell_read_transient` over a ``(design, temp_c)`` grid.

    ``cases`` is an iterable of ``(design, temp_c)`` pairs sharing one cell
    topology (e.g. the same design at several W/L sizings and temperatures,
    as the ablation benchmarks sweep).  All members are solved in a single
    batched transient; the returned list holds one
    :class:`~repro.circuit.results.TransientResult` view per case, in
    order, matching scalar calls within the batched engine's tolerance.
    """
    from repro.circuit.batched import transient_simulation_batched

    cases = list(cases)
    if not cases:
        raise ValueError("cell_read_transient_batch needs at least one case")
    windows = {design.t_read for design, _ in cases} if t_read is None \
        else {t_read}
    if len(windows) > 1:
        raise ValueError("designs disagree on t_read; pass t_read explicitly")
    (window,) = windows

    circuits = [read_circuit(design, weight_bit=weight_bit,
                             input_bit=input_bit, variation=variation,
                             co_farads=co_farads)
                for design, _ in cases]
    ensemble = transient_simulation_batched(
        circuits, t_stop=window, dt=dt,
        temps_c=[float(temp_c) for _, temp_c in cases],
        initial_conditions={"out": 0.0})
    return [ensemble.member(b) for b in range(len(cases))]


def multiplication_truth_table(design, temp_c, threshold_ratio=0.1):
    """Evaluate the cell's binary multiply: output level for all 4 cases.

    Returns a dict ``(weight, input) -> final output voltage``; the cell
    implements multiplication iff only the (1, 1) case produces a high level.
    ``threshold_ratio`` is used by callers to judge on/off separation.
    """
    table = {}
    for weight in (0, 1):
        for inp in (0, 1):
            res = cell_read_transient(design, temp_c, weight_bit=weight,
                                      input_bit=inp)
            table[(weight, inp)] = res.final_voltage("out")
    return table


def scaled_design(design, **overrides):
    """Shallow-copy helper for frozen dataclass designs (used in ablations)."""
    return replace(design, **overrides)
