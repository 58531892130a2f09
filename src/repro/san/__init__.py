"""Stochastic Activity Network engine (the Mobius stand-in).

Implements the SAN formalism of Sanders & Meyer — places, extended
places, timed and instantaneous activities with cases, input/output
gates, Join/Replicate composition — plus a discrete-event simulator and
reward variables, which together replace the closed-source Mobius tool
the paper used.
"""

from .activities import Activity, Case, InstantaneousActivity, TimedActivity
from .analysis import ReachabilityAnalyzer
from .compiled import (
    ENGINES,
    BatchCompiledSANSimulator,
    CompiledSANSimulator,
    build_simulator,
    place_matrix,
    resolve_engine,
    run_lanes,
)
from .composed import ComposedModel, SharedVariable, join, replicate
from .ctmc import CTMCSolver
from .dot import save_dot, to_dot
from .gates import InputGate, OutputGate
from .model import ModelBase, SANModel
from .places import ExtendedPlace, Marking, Place, PlaceLike, share
from .reward import ImpulseReward, RateReward, RatioRateReward, RewardVariable
from .simulator import SANSimulator

__all__ = [
    "Activity",
    "Case",
    "InstantaneousActivity",
    "TimedActivity",
    "ComposedModel",
    "SharedVariable",
    "join",
    "replicate",
    "CTMCSolver",
    "ReachabilityAnalyzer",
    "to_dot",
    "save_dot",
    "InputGate",
    "OutputGate",
    "ModelBase",
    "SANModel",
    "ExtendedPlace",
    "Marking",
    "Place",
    "PlaceLike",
    "share",
    "ImpulseReward",
    "RateReward",
    "RatioRateReward",
    "RewardVariable",
    "SANSimulator",
    "CompiledSANSimulator",
    "BatchCompiledSANSimulator",
    "ENGINES",
    "build_simulator",
    "place_matrix",
    "resolve_engine",
    "run_lanes",
]
