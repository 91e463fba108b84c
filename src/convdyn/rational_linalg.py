"""Empty: no exact elimination is left in the package.

Null spaces, fixed points and limits are read off the support orbit and
its cosets, so the Gaussian elimination that lived here had no caller.
``perfbench/tracing.py`` still imports this module by name (it is one of
its ``LAYERS``), so the file stays until ROADMAP item 6 deletes it together
with that entry.
"""
