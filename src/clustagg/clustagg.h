#ifndef CLUSTAGG_CLUSTAGG_H_
#define CLUSTAGG_CLUSTAGG_H_

/// \file
/// Umbrella header for the clustagg library — a production-quality
/// implementation of "Clustering Aggregation" (Gionis, Mannila, Tsaparas;
/// ICDE 2005): the clustering-aggregation / correlation-clustering
/// problem, the BESTCLUSTERING / BALLS / AGGLOMERATIVE / FURTHEST /
/// LOCALSEARCH algorithms, the SAMPLING meta-algorithm for large
/// datasets, vanilla clustering substrates (k-means, linkage methods),
/// categorical-data support (attribute-induced clusterings, ROCK, LIMBO),
/// synthetic data generators, and evaluation metrics.

#include "categorical/attribute_clusterings.h"
#include "categorical/limbo.h"
#include "categorical/rock.h"
#include "categorical/table.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/annealing.h"
#include "core/best_clustering.h"
#include "core/clusterer.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/disagreement.h"
#include "core/distance_source.h"
#include "core/exact.h"
#include "core/hierarchy.h"
#include "core/lower_bound.h"
#include "core/majority.h"
#include "core/pivot.h"
#include "core/sampling.h"
#include "core/signature_index.h"
#include "data/synthetic2d.h"
#include "data/synthetic_categorical.h"
#include "ensemble/ensemble.h"
#include "eval/confidence.h"
#include "eval/metrics.h"
#include "io/clustering_io.h"
#include "io/csv.h"
#include "local/local_oracle.h"
#include "shard/decompose.h"
#include "shard/shard_aggregator.h"
#include "shard/shard_options.h"
#include "stream/journal.h"
#include "stream/recovery.h"
#include "stream/snapshot.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"
#include "vanilla/dataset2d.h"
#include "vanilla/hierarchical.h"
#include "vanilla/kmeans.h"

#endif  // CLUSTAGG_CLUSTAGG_H_
