"""One module per pipeline, named as in core.PIPELINE_NAMES.

Each module holds its pipeline's run_<name> function, the builders and
readers of its claims, and its CLAIM_KINDS table (with CONTEXTS, STAGES and
NON_BLOCKING where the pipeline has them).  A claim that two pipelines
share lives with the one whose layers it needs: the index claim with
intersect, the trace claim with sl2z, and the algebra's admissibility with
hilbert.  The trace claim needs no layer beyond mat2: sl2z computes it in
integers over Z[sqrt(d)], and no pipeline imports fuchsian.
"""
