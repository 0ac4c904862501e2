"""Skip Graph overlay simulator with churn stabilization and availability prediction.

The package root exports nothing.  Callers import the submodules:
``skipchurn.cli`` for the ``run``, ``predict-bench`` and ``analyze`` commands,
and ``skipchurn.engine``, ``skipchurn.overlay``, ``skipchurn.stabilizers``,
``skipchurn.predictors``, ``skipchurn.churn``, ``skipchurn.bench`` and
``skipchurn.analytics`` for their parts.
"""

__version__ = "0.1.0"
