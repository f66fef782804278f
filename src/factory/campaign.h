// Campaign: multi-day factory production. Each day at the configured
// hour every active forecast launches on its assigned node — whether or
// not yesterday's run finished (the paper: "forecasts generally start at
// the same time each day", so a late run competes with its successor for
// CPU cycles; that work-in-progress coupling is the mechanism behind the
// Fig. 8 cascading-delay hump). A schedule of change events re-enacts the
// documented history: timestep doubling, mesh changes, code-version
// changes, forecast additions, node failures. Completed runs emit log
// records (optionally to disk in the §4.3.2 directory layout) and per-day
// walltime series — the data of Figs. 8 and 9.

#ifndef FF_FACTORY_CAMPAIGN_H_
#define FF_FACTORY_CAMPAIGN_H_

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "core/rescheduler.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "logdata/log_record.h"
#include "logdata/spc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "statsdb/database.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/cost_model.h"
#include "workload/forecast_spec.h"

namespace ff {
namespace factory {

/// A change applied to the factory at the start of a given day.
struct ChangeEvent {
  enum class Kind {
    kSetTimesteps,    // forecast, int_value
    kSetMeshSides,    // forecast, int_value
    kSetCodeVersion,  // forecast, str_value = version, factor = code_factor
    kAddForecast,     // new_forecast + str_value = node
    kRemoveForecast,  // forecast
    kReassign,        // forecast, str_value = target node
    kNodeDown,        // str_value = node
    kNodeUp,          // str_value = node
    kGuestLoad,       // str_value = node, factor = CPU-seconds of one-day
                      // guest work (models contention spikes, Fig. 9)
  };
  int day = 0;
  Kind kind;
  std::string forecast;
  int64_t int_value = 0;
  double factor = 1.0;
  std::string str_value;
  workload::ForecastSpec new_forecast;
};

/// Campaign configuration.
struct CampaignConfig {
  int num_days = 76;
  int first_day = 1;             // day-of-year of day index 0
  double start_hour = 1.0;       // daily launch hour
  double noise_sigma = 0.015;    // lognormal walltime noise
  uint64_t seed = 42;
  std::string log_dir;           // when non-empty, write run.log files
  workload::CostModel cost_model;

  /// ForeMan-in-the-loop: at each day's start, if a node's runs were
  /// predicted to overrun the day for `rebalance_patience` consecutive
  /// days, move its lowest-priority forecast to the least-loaded node.
  bool foreman_rebalance = false;
  int rebalance_patience = 2;

  /// What happens to runs on a failed node.
  core::ReschedulePolicy failure_policy = core::ReschedulePolicy::kMinimal;

  /// Optional live statistics database (not owned). When set, each run
  /// upserts a status='running' row into its "runs" table at launch and
  /// patches it to 'completed' when it finishes — the paper's §4.3.2
  /// "insert commands into the run scripts to update the database"
  /// alternative to periodic crawling. The table is created when absent.
  statsdb::Database* live_db = nullptr;

  /// Virtual-time period of the metrics ticker (per-node utilization and
  /// task-count gauges plus a SampleAll snapshot). Only runs while a
  /// MetricsRegistry is installed; 0 disables it.
  double metrics_sample_period = 3600.0;

  /// SPC monitor -> replan loop (§1: control charts on run times). Per
  /// forecast, the first `spc_baseline_days` completed walltimes fit an
  /// X-mR chart; a subsequent out-of-control signal above the center line
  /// moves the forecast to the least-loaded node and refits the chart
  /// under the new placement.
  bool spc_replan = false;
  int spc_baseline_days = 14;

  /// Machine faults to inject (kNodeCrash with repair, kTaskTransient;
  /// link faults are not valid here — campaign runs model no transfers).
  /// Armed at simulator priority -1, so a fault at a launch instant lands
  /// before that day's launches.
  fault::FaultPlan fault_plan;

  /// Graceful degradation for crashed nodes (§2.1: a degraded plant is
  /// worth waiting for — up to a point). Off: every crash takes the plain
  /// failure_policy path (HandleNodeDown), exactly as a kNodeDown change
  /// event would. On, per displaced run the ladder is:
  ///   delay — if finishing after the estimated repair still meets the
  ///           forecast's deadline (+ slack), the run stays put and rides
  ///           out the outage;
  ///   drop  — else, if the forecast's priority is at or beyond
  ///           drop_priority_threshold (higher = less important), the run
  ///           is shed with a kDropped record;
  ///   migrate — else it moves per failure_policy.
  bool graceful_degradation = false;
  int drop_priority_threshold = std::numeric_limits<int>::max();
  double degrade_deadline_slack = 0.0;

  /// Retry/backoff for runs killed by kTaskTransient faults: the run
  /// restarts from its checkpoint (remaining work) after a backoff drawn
  /// from the campaign RNG; exhausting the budget records kFailed.
  fault::RetryPolicy task_retry;
};

/// One walltime sample.
struct DaySample {
  int day;            // day-of-year
  double walltime;    // seconds
};

/// Campaign output.
struct CampaignResult {
  /// Per-forecast per-day walltimes (completed runs only).
  std::map<std::string, std::vector<DaySample>> walltimes;
  /// Every run's log record (completed, running at campaign end, failed).
  std::vector<logdata::LogRecord> records;
  int foreman_moves = 0;
  int failure_migrations = 0;
  /// SPC monitor outcomes (only when CampaignConfig::spc_replan).
  int spc_signals = 0;
  int spc_replans = 0;
  /// Fault-plan outcomes (only when CampaignConfig::fault_plan is set).
  int runs_delayed = 0;   // rode out a crash in place (degradation ladder)
  int runs_dropped = 0;   // shed by the ladder's drop rung
  int task_retries = 0;   // transient-fault restarts
  uint64_t faults_injected = 0;
};

/// The campaign driver.
class Campaign {
 public:
  explicit Campaign(CampaignConfig config);
  ~Campaign();

  /// Adds a compute node (before Run).
  util::Status AddNode(const std::string& name, int num_cpus = 2,
                       double speed = 1.0);

  /// Registers a forecast active from day index `added_day`, assigned to
  /// `node`.
  util::Status AddForecast(const workload::ForecastSpec& spec,
                           const std::string& node, int added_day = 0);

  /// Schedules a change event.
  void AddEvent(ChangeEvent event);

  /// Runs the whole campaign and collects results. Call once.
  util::StatusOr<CampaignResult> Run();

 private:
  struct ForecastEntry {
    workload::ForecastSpec spec;
    std::string node;
    int added_day;
    int removed_day = std::numeric_limits<int>::max();
    int overload_streak = 0;  // consecutive predicted-overrun days
    // Observability ids of this forecast, resolved at first use under the
    // current install (ObsCache::epoch); 0 / kNoSeries = not yet.
    obs::StrId trace_name = 0;
    uint32_t walltime_series = kNoSeries;
  };
  struct ActiveRun {
    ForecastEntry* fc;  // forecasts_ never erases, so this stays valid
    int day_index;
    std::string node;
    cluster::TaskId task;
    double start_time;
    double work;
    obs::SpanId span = 0;  // kRun span; open until completion
    int failures = 0;      // transient-fault kills of this run
    bool retired = false;  // completed, dropped or failed — never restart

    const std::string& forecast() const { return fc->spec.name; }
  };
  static constexpr uint32_t kNoSeries = ~uint32_t{0};
  // Trace ids and metric instruments of the per-run hot path. Each is
  // resolved where the uncached code would first intern or register it,
  // so string and series ids keep their order; a new observability
  // install (epoch) clears them all.
  struct ObsCache {
    uint64_t epoch = 0;
    obs::StrId runs_track = 0;
    obs::StrId day_key = 0;
    obs::StrId node_key = 0;
    obs::StrId work_key = 0;
    obs::Counter* runs_completed = nullptr;
    obs::Histogram* walltime = nullptr;
    std::vector<obs::Gauge*> node_util;   // by node_order_ index
    std::vector<obs::Gauge*> node_tasks;
  };
  struct SpcState {
    std::vector<double> history;  // pre-fit baseline, then monitored tail
    logdata::ControlChart chart;
    bool fitted = false;
  };

  void ScheduleDay(int day_index);
  void LaunchDay(int day_index);
  void ApplyEvents(int day_index);
  void RebalanceIfNeeded(int day_index);
  void LaunchRun(ForecastEntry* entry, int day_index);
  void LiveDbUpsert(const logdata::LogRecord& rec);
  logdata::LogRecord MakeRecord(const ActiveRun& run,
                                logdata::RunStatus status) const;
  void OnRunComplete(size_t run_index);
  void HandleNodeDown(const std::string& node);
  void DisplaceRun(size_t run_index, const std::string& node);
  void RetireRun(size_t run_index, logdata::RunStatus status);
  void OnFault(const fault::FaultNotice& notice);
  void HandleNodeCrash(const fault::FaultEvent& event);
  void HandleTaskTransient(const fault::FaultEvent& event);
  void MetricsTick();
  // Clears obs_ when the observability install changed since last use.
  void RevalidateObsCache();
  void SpcCheck(const std::string& forecast, double walltime);
  cluster::Machine* MachineOrDie(const std::string& name);
  std::string LeastLoadedNode(const std::string& excluded) const;

  CampaignConfig config_;
  sim::Simulator sim_;
  util::Rng rng_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::map<std::string, std::unique_ptr<cluster::Machine>> machines_;
  std::vector<std::string> node_order_;
  std::map<std::string, ForecastEntry> forecasts_;
  std::vector<ChangeEvent> events_;
  std::vector<ActiveRun> active_runs_;  // stable storage; entries retire
  std::map<std::string, double> pending_work_;  // node -> queued+running
  std::map<std::string, SpcState> spc_;
  ObsCache obs_;
  CampaignResult result_;
  bool ran_ = false;
};

}  // namespace factory
}  // namespace ff

#endif  // FF_FACTORY_CAMPAIGN_H_
