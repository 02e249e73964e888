"""A real (threaded) mini stream-processing runtime — the SPC analogue.

The paper evaluates ACES both in the SPC (IBM's Stream Processing Core)
and in a simulator calibrated against it.  This package plays the SPC's
role: PEs are worker threads connected by real bounded queues; each node
runs a wall-clock control loop that reuses the *exact same* controller
classes (:class:`~repro.core.flow_control.FlowController`,
:class:`~repro.core.feedback.FeedbackBus`, the CPU schedulers) as the
simulator, so the calibration experiment compares one control
implementation across two substrates.

Processing cost is emulated by sleeping ``T_S / c`` wall-seconds per SDO
(fractional CPU as slowdown) — under the GIL, sleeping rather than burning
cycles is what keeps a 60-PE topology runnable on one machine.  A time
dilation factor scales all model times so experiments finish quickly.
"""

from repro.runtime.spc import SPCRuntime, RuntimeConfig

__all__ = ["RuntimeConfig", "SPCRuntime"]
