"""Pool-based active learning with kernel-regularized training and
checkpoint-trajectory uncertainty.

The package splits into a core (``errors``, ``seeding``, ``layers``, ``mmd``,
``dataio``, ``model``, ``trainer``, ``pool``), the acquisition strategies and
method table (``acquisition``), and the experiment harness (``config``,
``experiment``, ``gradcheck``, ``cli``).  Imports point one way, core ->
acquisition -> harness.  Everything random flows through ``seeding``.  Import
names from their modules; the package root re-exports nothing.
"""

__version__ = "0.1.0"
