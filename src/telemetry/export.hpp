// CSV export of run results and time series — the interchange format for
// feeding the suite's measurements into external analysis pipelines
// (pandas/R), mirroring the paper artifact's per-application CSV outputs.
//
// Deliberately decoupled from the layers above: callers pass the cluster
// name and a RecordFrame (which carries each row's location) instead of
// a Cluster, so the telemetry layer never includes cluster or workload
// headers.
#pragma once

#include <istream>
#include <ostream>
#include <string_view>

#include "telemetry/frame.hpp"
namespace gpuvar { class TimeSeries; }  // was: #include "gpu/timeseries.hpp"

namespace gpuvar {

/// One row per telemetry sample of one run's series.
void export_series_csv(std::ostream& out, const TimeSeries& series);

/// The results CSV: one row per frame row, and the only results writer.
/// The leading columns are the legacy per-run results schema, so any
/// results CSV consumer can read it; the frame stores only medians, so
/// the min/max columns repeat the median and energy_j is 0. The trailing
/// columns (day_of_week, gpu_in_node, row_idx, column_idx,
/// node_in_group) preserve the full location and day tag, which makes
/// import_results_frame a lossless inverse: frame -> CSV -> frame
/// re-exports byte-identically.
void export_frame_csv(std::ostream& out, std::string_view cluster_name,
                      const RecordFrame& frame);

/// Columnar import: the sole CSV ingestion path. Reads what
/// export_frame_csv writes, and also CSVs that carry only the legacy
/// results columns — gpu, node, cabinet, run, perf_ms and the *_median
/// telemetry columns, the counter columns optional — which is the entry
/// point for measurements collected on real hardware. Without the
/// trailing columns a row is untagged (day_of_week -1) and its location
/// keeps GpuLocation's defaults beyond name, node and cabinet.
RecordFrame import_results_frame(std::istream& in);

}  // namespace gpuvar
