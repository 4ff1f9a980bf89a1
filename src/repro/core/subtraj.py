"""Driver-side view of the ``subtrajs`` table.

The SaCO phase (sampling, clustering, outliers) and ReTraTree operate on
*sub-trajectories*, not raw segments.  ``core.segmentation`` emits them
as one row per (traj_id, subtraj_id) with the voting summary and the
polyline as array columns (``SUBTRAJ_SCHEMA``); this module collects
that table for the driver-side consumers.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


def subtrajs_to_pandas(subtrajs: DataFrame) -> pd.DataFrame:
    """Collect subtraj rows with polylines as numpy arrays (driver side).

    Used by the sampling greedy loop: the subtraj summary table is
    orders of magnitude smaller than the point data (paper's reason for
    running SaCO after segmentation), so collecting it is the intended
    cost model.
    """
    pdf = subtrajs.toPandas()
    for c in ("ts", "xs", "ys"):
        pdf[c] = pdf[c].apply(lambda a: np.asarray(a, dtype=np.float64))
    return pdf.sort_values(["traj_id", "subtraj_id"]).reset_index(drop=True)
