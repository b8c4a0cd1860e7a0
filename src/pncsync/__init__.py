"""Link-level toolkit for synchronization-error analysis of physical-layer
network coding (PNC) on a two-way relay channel.

Submodules:
    mapping      QPSK map and the class-major layout of the 16 pairs
    impairments  phase folding, raised-cosine ISI taps, per-frame synthesis
    detection    threshold and ML xor detectors at the relay
    analysis     closed-form penalty math (min distance, SIR, SINR)
    mutual_info  Monte-Carlo mutual-information kernels of the xor symbol
    chain        N-node chain synchronization planner
    harness      experiment configs, scenario table, BER/MI runners, CSV
"""

__version__ = "0.1.0"
