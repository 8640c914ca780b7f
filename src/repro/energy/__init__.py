"""Radio energy model (Fig. 14 substrate)."""

from repro.energy.model import EnergyAccount, RadioPowerModel, POWER_MODELS

__all__ = ["EnergyAccount", "RadioPowerModel", "POWER_MODELS"]
