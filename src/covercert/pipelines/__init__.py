"""One module per pipeline, named as in core.PIPELINE_NAMES.

Each module holds its pipeline's run_<name> function, which is the one call
core.run_pipeline(name, cfg), the builders of its claims with the finder of
each search claim (its search and its reader in one), and its CLAIM_KINDS
table (with CONTEXTS, STAGES and NON_BLOCKING where the pipeline has them).
No pipeline module places stages, stubs or contexts itself: core's claim
loop does.  A claim that two pipelines share lives with the one whose
layers it needs: the index claim with intersect, the trace claim with sl2z,
and the algebra's admissibility with hilbert.  The trace claim needs no
layer beyond mat2: sl2z computes it in integers over Z[sqrt(d)], and no
pipeline imports fuchsian.
"""
