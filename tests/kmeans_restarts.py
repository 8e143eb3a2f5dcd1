"""``kmeans_with_restarts(restarts, m, K, **kw)``: one ``kmeans`` call run
with ``cluster.RESTARTS`` set to ``restarts``, for the tests that cluster
with another restart count than the library's."""

from anchorstat import cluster


def kmeans_with_restarts(restarts: int, m, K: int, **kw) -> cluster.Partition:
    saved, cluster.RESTARTS = cluster.RESTARTS, restarts
    try:
        return cluster.kmeans(m, K, **kw)
    finally:
        cluster.RESTARTS = saved
