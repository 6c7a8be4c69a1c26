"""Machine composition: configs, the machine, the attacker view, the inspector."""

from repro.machine.attacker import AttackerView
from repro.machine.configs import (
    CacheConfig,
    CPUTimings,
    DRAMConfig,
    FaultConfig,
    MachineConfig,
    PSCConfig,
    SCALED_MACHINES,
    TABLE1_MACHINES,
    TLBConfig,
    dell_e6420,
    dell_e6420_scaled,
    lenovo_t420,
    lenovo_t420_scaled,
    lenovo_x230,
    lenovo_x230_scaled,
    tiny_test_config,
)
from repro.machine.inspector import Inspector
from repro.machine.machine import AccessResult, Machine
from repro.machine.snapshot import SNAPSHOT_VERSION, MachineSnapshot

__all__ = [
    "AccessResult",
    "AttackerView",
    "CPUTimings",
    "CacheConfig",
    "DRAMConfig",
    "FaultConfig",
    "Inspector",
    "Machine",
    "MachineConfig",
    "MachineSnapshot",
    "PSCConfig",
    "SNAPSHOT_VERSION",
    "SCALED_MACHINES",
    "TABLE1_MACHINES",
    "TLBConfig",
    "dell_e6420",
    "dell_e6420_scaled",
    "lenovo_t420",
    "lenovo_t420_scaled",
    "lenovo_x230",
    "lenovo_x230_scaled",
    "tiny_test_config",
]
