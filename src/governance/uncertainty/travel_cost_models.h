#ifndef TSDM_GOVERNANCE_UNCERTAINTY_TRAVEL_COST_MODELS_H_
#define TSDM_GOVERNANCE_UNCERTAINTY_TRAVEL_COST_MODELS_H_

#include <functional>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/governance/uncertainty/histogram.h"
#include "src/governance/uncertainty/time_varying.h"

namespace tsdm {

/// Maps an edge path + departure time to a travel-time distribution —
/// satisfied by EdgeCentricModel / PathCentricModel below.
using PathCostModel = std::function<Result<Histogram>(
    const std::vector<int>& edge_path, double depart_seconds)>;

/// One observed trip: the traversed edges, the realized per-edge travel
/// times, and the departure time of day. Produced by map-matched GPS
/// trajectories or loop detectors; here usually by the traffic simulator.
struct TripObservation {
  std::vector<int> edge_path;
  std::vector<double> edge_times;
  double depart_seconds = 0.0;
};

/// The *edge-centric* uncertainty paradigm ([15]): one time-varying
/// distribution per edge, edges treated as independent. Path cost
/// distributions are obtained by convolving edge histograms — cheap, but
/// blind to the correlation of congestion along a path.
class EdgeCentricModel {
 public:
  /// `num_edges` must cover every edge id that will be observed.
  EdgeCentricModel(int num_edges, int slots_per_day = 24)
      : edges_(num_edges, TimeVaryingDistribution(slots_per_day)) {}

  /// Records each edge's realized time under the trip's departure slot.
  void AddTrip(const TripObservation& trip);

  /// Finalizes histograms. Edges with no observations keep empty
  /// distributions and cause NotFound at query time.
  Status Build(int bins = 32);

  /// Distribution of an edge's travel time at a time of day.
  Result<Histogram> EdgeDistribution(int edge_id,
                                     double time_of_day_seconds) const;

  /// Path travel-time distribution by independent convolution.
  Result<Histogram> PathCostDistribution(const std::vector<int>& edge_path,
                                         double depart_seconds,
                                         int result_bins = 64) const;

 private:
  std::vector<TimeVaryingDistribution> edges_;
  std::vector<bool> observed_;
};

/// The *path-centric* paradigm (PACE, [4]): joint travel-time distributions
/// are learned for frequently traversed sub-paths, so correlations along
/// those sub-paths are captured exactly; a query path is covered by the
/// longest learned sub-paths and only *across* cover pieces is independence
/// assumed. Falls back to single-edge distributions where no longer
/// sub-path has support.
class PathCentricModel {
 public:
  PathCentricModel(int slots_per_day = 24, int max_subpath_length = 8)
      : slots_per_day_(slots_per_day),
        max_subpath_length_(max_subpath_length) {}

  /// Records the *total* time of every contiguous sub-path (up to the
  /// configured length) of the trip.
  void AddTrip(const TripObservation& trip);

  /// Finalizes histograms; sub-paths with fewer than `min_support`
  /// observations are dropped (except single edges, always kept).
  Status Build(int bins = 32, int min_support = 20);

  /// Path cost distribution via greedy longest-learned-sub-path cover.
  Result<Histogram> PathCostDistribution(const std::vector<int>& edge_path,
                                         double depart_seconds,
                                         int result_bins = 64) const;

  /// Number of learned sub-path distributions (after Build).
  size_t NumLearnedSubpaths() const { return table_.size(); }

  /// Number of cover pieces used for a path (diagnostic; 0 if unknown).
  int CoverSize(const std::vector<int>& edge_path) const;

 private:
  struct Entry {
    TimeVaryingDistribution dist;
    int support = 0;
  };

  int slots_per_day_;
  int max_subpath_length_;
  std::map<std::vector<int>, Entry> table_;
  bool built_ = false;
};

}  // namespace tsdm

#endif  // TSDM_GOVERNANCE_UNCERTAINTY_TRAVEL_COST_MODELS_H_
