#include "factory/campaign.h"

#include <algorithm>
#include <cmath>

#include "core/share_model.h"
#include "logdata/loader.h"
#include "logdata/log_store.h"
#include "util/logging.h"
#include "util/time_util.h"

namespace ff {
namespace factory {

namespace {
constexpr double kDay = util::kSecondsPerDay;
}

Campaign::Campaign(CampaignConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

Campaign::~Campaign() = default;

util::Status Campaign::AddNode(const std::string& name, int num_cpus,
                               double speed) {
  if (machines_.count(name)) {
    return util::Status::AlreadyExists("node " + name);
  }
  machines_.emplace(name, std::make_unique<cluster::Machine>(
                              &sim_, name, num_cpus, speed));
  node_order_.push_back(name);
  return util::Status::OK();
}

util::Status Campaign::AddForecast(const workload::ForecastSpec& spec,
                                   const std::string& node, int added_day) {
  if (forecasts_.count(spec.name)) {
    return util::Status::AlreadyExists("forecast " + spec.name);
  }
  if (!machines_.count(node)) {
    return util::Status::NotFound("node " + node);
  }
  ForecastEntry entry;
  entry.spec = spec;
  entry.node = node;
  entry.added_day = added_day;
  forecasts_.emplace(spec.name, std::move(entry));
  return util::Status::OK();
}

void Campaign::AddEvent(ChangeEvent event) {
  events_.push_back(std::move(event));
}

cluster::Machine* Campaign::MachineOrDie(const std::string& name) {
  auto it = machines_.find(name);
  FF_CHECK(it != machines_.end()) << "unknown node " << name;
  return it->second.get();
}

std::string Campaign::LeastLoadedNode(const std::string& excluded) const {
  std::string best;
  double best_rel = 0.0;
  for (const auto& name : node_order_) {
    const auto& m = machines_.at(name);
    if (name == excluded || !m->up()) continue;
    auto it = pending_work_.find(name);
    double load = it == pending_work_.end() ? 0.0 : it->second;
    double rel = load / (static_cast<double>(m->num_cpus()) * m->speed());
    if (best.empty() || rel < best_rel) {
      best = name;
      best_rel = rel;
    }
  }
  return best;
}

void Campaign::ScheduleDay(int day_index) {
  double t = day_index * kDay + config_.start_hour * 3600.0;
  sim_.ScheduleAt(t, [this, day_index] { LaunchDay(day_index); });
}

void Campaign::ApplyEvents(int day_index) {
  for (const auto& ev : events_) {
    if (ev.day != day_index) continue;
    switch (ev.kind) {
      case ChangeEvent::Kind::kSetTimesteps: {
        auto it = forecasts_.find(ev.forecast);
        if (it != forecasts_.end()) it->second.spec.timesteps = ev.int_value;
        break;
      }
      case ChangeEvent::Kind::kSetMeshSides: {
        auto it = forecasts_.find(ev.forecast);
        if (it != forecasts_.end()) {
          it->second.spec.mesh_sides = ev.int_value;
        }
        break;
      }
      case ChangeEvent::Kind::kSetCodeVersion: {
        auto it = forecasts_.find(ev.forecast);
        if (it != forecasts_.end()) {
          it->second.spec.code_version = ev.str_value;
          it->second.spec.code_factor = ev.factor;
        }
        break;
      }
      case ChangeEvent::Kind::kAddForecast: {
        AddForecast(ev.new_forecast, ev.str_value, day_index).ok();
        break;
      }
      case ChangeEvent::Kind::kRemoveForecast: {
        auto it = forecasts_.find(ev.forecast);
        if (it != forecasts_.end()) it->second.removed_day = day_index;
        break;
      }
      case ChangeEvent::Kind::kReassign: {
        auto it = forecasts_.find(ev.forecast);
        if (it != forecasts_.end() && machines_.count(ev.str_value)) {
          it->second.node = ev.str_value;
        }
        break;
      }
      case ChangeEvent::Kind::kNodeDown: {
        if (machines_.count(ev.str_value)) {
          if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
            tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                        "node_down:" + ev.str_value, "campaign");
          }
          MachineOrDie(ev.str_value)->SetUp(false);
          HandleNodeDown(ev.str_value);
        }
        break;
      }
      case ChangeEvent::Kind::kNodeUp: {
        if (machines_.count(ev.str_value)) {
          if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
            tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                        "node_up:" + ev.str_value, "campaign");
          }
          MachineOrDie(ev.str_value)->SetUp(true);
        }
        break;
      }
      case ChangeEvent::Kind::kGuestLoad: {
        if (machines_.count(ev.str_value)) {
          // One-day guest work; not logged as a forecast run.
          std::string node = ev.str_value;
          pending_work_[node] += ev.factor;
          MachineOrDie(node)->StartTask(
              ev.factor, [this, node, w = ev.factor] {
                pending_work_[node] -= w;
              });
        }
        break;
      }
    }
  }
}

void Campaign::DisplaceRun(size_t run_index, const std::string& node) {
  ActiveRun& run = active_runs_[run_index];
  auto remaining = MachineOrDie(node)->RemoveTask(run.task);
  if (!remaining.ok()) return;
  pending_work_[node] -= *remaining;
  std::string target = LeastLoadedNode(node);
  if (target.empty()) {
    // Nowhere to go; record as failed.
    run.task = 0;
    run.retired = true;
    result_.records.push_back(MakeRecord(run, logdata::RunStatus::kFailed));
    if (run.span != 0) {
      if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
        tr->SpanArg(run.span, "failed", 1.0);
        tr->EndSpan(run.span, sim_.now());
      }
    }
    return;
  }
  run.node = target;
  pending_work_[target] += *remaining;
  run.task = MachineOrDie(target)->StartTask(
      *remaining, [this, run_index] { OnRunComplete(run_index); }, 0.0,
      run.forecast(), run.span);
  ++result_.failure_migrations;
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    m->counter("campaign.failure_migrations")->Increment();
  }
}

void Campaign::HandleNodeDown(const std::string& node) {
  using core::ReschedulePolicy;
  if (config_.failure_policy == ReschedulePolicy::kNone) return;

  // Displace the failed node's in-flight runs.
  for (size_t i = 0; i < active_runs_.size(); ++i) {
    ActiveRun& run = active_runs_[i];
    if (run.task == 0 || run.node != node) continue;
    DisplaceRun(i, node);
  }
  // Reassign the forecasts themselves so tomorrow's launches avoid the
  // dead node.
  for (auto& [name, entry] : forecasts_) {
    if (entry.node == node) {
      std::string target = LeastLoadedNode(node);
      if (!target.empty()) entry.node = target;
    }
  }
  if (config_.failure_policy == ReschedulePolicy::kFullReplan) {
    // Spread ALL forecasts over healthy nodes by estimated work (LPT).
    std::vector<std::pair<double, std::string>> items;
    for (const auto& [name, entry] : forecasts_) {
      items.emplace_back(config_.cost_model.TotalCpuSeconds(entry.spec),
                         name);
    }
    std::sort(items.rbegin(), items.rend());
    std::map<std::string, double> load;
    for (const auto& [w, name] : items) {
      std::string best;
      double best_rel = 0.0;
      for (const auto& n : node_order_) {
        const auto& m = machines_.at(n);
        if (!m->up()) continue;
        double rel = load[n] /
                     (static_cast<double>(m->num_cpus()) * m->speed());
        if (best.empty() || rel < best_rel) {
          best = n;
          best_rel = rel;
        }
      }
      if (best.empty()) break;
      forecasts_.at(name).node = best;
      load[best] += w;
    }
  }
}

void Campaign::RetireRun(size_t run_index, logdata::RunStatus status) {
  ActiveRun& run = active_runs_[run_index];
  run.task = 0;
  run.retired = true;
  result_.records.push_back(MakeRecord(run, status));
  if (run.span != 0) {
    if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
      tr->SpanArg(run.span,
                  status == logdata::RunStatus::kDropped ? "dropped"
                                                         : "failed",
                  1.0);
      tr->EndSpan(run.span, sim_.now());
    }
  }
}

void Campaign::OnFault(const fault::FaultNotice& notice) {
  if (notice.repair) return;  // the injector already restored the machine
  const fault::FaultEvent& ev = *notice.event;
  switch (ev.kind) {
    case fault::FaultKind::kNodeCrash:
      HandleNodeCrash(ev);
      break;
    case fault::FaultKind::kTaskTransient:
      HandleTaskTransient(ev);
      break;
    default:
      FF_CHECK(false) << "campaign fault plans support machine faults "
                         "only, got "
                      << fault::FaultKindName(ev.kind);
  }
}

void Campaign::HandleNodeCrash(const fault::FaultEvent& ev) {
  const std::string& node = ev.target;
  if (!config_.graceful_degradation) {
    // Plain path: exactly what a kNodeDown change event does after
    // SetUp(false) (which the injector already applied).
    HandleNodeDown(node);
    return;
  }
  cluster::Machine* machine = MachineOrDie(node);
  const double repair_eta = sim_.now() + ev.duration;
  for (size_t i = 0; i < active_runs_.size(); ++i) {
    ActiveRun& run = active_runs_[i];
    if (run.task == 0 || run.retired || run.node != node) continue;
    const ForecastEntry& entry = *run.fc;
    auto remaining = machine->RemainingWork(run.task);
    if (!remaining.ok()) continue;
    // Optimistic post-repair finish: the run alone on one CPU.
    double finish_eta = repair_eta + *remaining / machine->speed();
    double deadline = run.day_index * kDay + entry.spec.deadline +
                      config_.degrade_deadline_slack;
    if (finish_eta <= deadline) {
      // Delay rung: ride out the outage in place (the machine keeps the
      // task's progress; §2.1's "willing to wait").
      ++result_.runs_delayed;
      if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
        tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                    "degrade.delay:" + run.forecast(), "campaign");
      }
      if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
        m->counter("campaign.runs_delayed")->Increment();
      }
      continue;
    }
    if (entry.spec.priority >= config_.drop_priority_threshold) {
      // Drop rung: shed the low-priority run outright.
      auto removed = machine->RemoveTask(run.task);
      if (removed.ok()) pending_work_[node] -= *removed;
      ++result_.runs_dropped;
      if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
        tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                    "degrade.drop:" + run.forecast(), "campaign");
      }
      if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
        m->counter("campaign.runs_dropped")->Increment();
      }
      RetireRun(i, logdata::RunStatus::kDropped);
      continue;
    }
    // Migrate rung: the run is important and waiting blows the deadline.
    if (config_.failure_policy != core::ReschedulePolicy::kNone) {
      DisplaceRun(i, node);
    }
  }
  // Tomorrow's launches avoid the node only when the repair estimate says
  // it will still be down then (unlike HandleNodeDown, which reassigns
  // unconditionally because a change-event outage has no repair ETA).
  double next_launch =
      (std::floor((sim_.now() - config_.start_hour * 3600.0) / kDay) +
       1.0) *
          kDay +
      config_.start_hour * 3600.0;
  if (repair_eta > next_launch) {
    for (auto& [name, entry] : forecasts_) {
      if (entry.node == node) {
        std::string target = LeastLoadedNode(node);
        if (!target.empty()) entry.node = target;
      }
    }
  }
}

void Campaign::HandleTaskTransient(const fault::FaultEvent& ev) {
  cluster::Machine* machine = MachineOrDie(ev.target);
  for (size_t i = 0; i < active_runs_.size(); ++i) {
    ActiveRun& run = active_runs_[i];
    if (run.task == 0 || run.retired || run.node != ev.target) continue;
    if (!rng_.Bernoulli(ev.magnitude)) continue;
    auto remaining = machine->RemoveTask(run.task);
    if (!remaining.ok()) continue;
    run.task = 0;
    ++run.failures;
    if (!config_.task_retry.AllowsRetry(run.failures)) {
      pending_work_[run.node] -= run.work;
      RetireRun(i, logdata::RunStatus::kFailed);
      continue;
    }
    ++result_.task_retries;
    if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
      m->counter("campaign.task_retries")->Increment();
    }
    double delay = config_.task_retry.NextDelay(run.failures, &rng_);
    // Restart from the checkpoint (remaining work) after the backoff.
    sim_.ScheduleAfter(delay, [this, i, rem = *remaining] {
      ActiveRun& r = active_runs_[i];
      if (r.retired || r.task != 0) return;
      r.task = MachineOrDie(r.node)->StartTask(
          rem, [this, i] { OnRunComplete(i); }, 0.0, r.forecast(), r.span);
    });
  }
}

void Campaign::RebalanceIfNeeded(int day_index) {
  if (!config_.foreman_rebalance) return;
  // ForeMan's check: predict today's completions per node under the CPU-
  // sharing model (carryover work from still-running prior days included);
  // a node whose runs would still be executing when tomorrow launches is
  // overloaded — that is exactly the condition that snowballs into the
  // Fig. 8 cascade.
  std::map<std::string, std::vector<ForecastEntry*>> node_forecasts;
  std::map<std::string, std::vector<core::ShareJob>> node_jobs;
  for (const auto& run : active_runs_) {
    if (run.task == 0) continue;
    auto remaining = machines_.at(run.node)->RemainingWork(run.task);
    if (!remaining.ok()) continue;
    node_jobs[run.node].push_back(core::ShareJob{
        run.forecast() + "#wip" + std::to_string(run.day_index), run.node,
        0.0, *remaining});
  }
  for (auto& [name, entry] : forecasts_) {
    if (day_index < entry.added_day || day_index >= entry.removed_day) {
      continue;
    }
    node_forecasts[entry.node].push_back(&entry);
    node_jobs[entry.node].push_back(core::ShareJob{
        name, entry.node, 0.0,
        config_.cost_model.TotalCpuSeconds(entry.spec)});
  }
  for (auto& [node, fcs] : node_forecasts) {
    const auto& m = machines_.at(node);
    core::NodeInfo info{node, m->num_cpus(), m->speed()};
    auto pred = core::PredictCompletions({info}, node_jobs[node]);
    bool overloaded =
        pred.ok() && pred->makespan > kDay - config_.start_hour * 3600.0;
    if (!overloaded) {
      for (auto* f : fcs) f->overload_streak = 0;
      continue;
    }
    bool acted = false;
    for (auto* f : fcs) {
      f->overload_streak += 1;
    }
    // Move the lowest-priority, most recently added forecast once the
    // overload has persisted (the paper's operators reacted after a
    // couple of days of inflated walltimes).
    std::vector<ForecastEntry*> sorted = fcs;
    std::sort(sorted.begin(), sorted.end(),
              [](const ForecastEntry* a, const ForecastEntry* b) {
                if (a->spec.priority != b->spec.priority) {
                  return a->spec.priority > b->spec.priority;
                }
                return a->added_day > b->added_day;
              });
    for (auto* victim : sorted) {
      if (acted) break;
      if (victim->overload_streak < config_.rebalance_patience) continue;
      if (sorted.size() < 2) break;  // nothing else to keep here
      std::string target = LeastLoadedNode(node);
      if (target.empty() || target == node) break;
      victim->node = target;
      victim->overload_streak = 0;
      ++result_.foreman_moves;
      if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
        tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                    "foreman.move:" + victim->spec.name, "campaign");
      }
      if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
        m->counter("campaign.foreman_moves")->Increment();
      }
      acted = true;
    }
  }
}

void Campaign::LiveDbUpsert(const logdata::LogRecord& rec) {
  if (config_.live_db == nullptr) return;
  if (!config_.live_db->HasTable(logdata::kRunsTable)) {
    auto table = config_.live_db->CreateTable(logdata::kRunsTable,
                                              logdata::RunsSchema());
    if (!table.ok()) return;
    (*table)->CreateIndex("forecast").ok();
  }
  auto table = config_.live_db->table(logdata::kRunsTable);
  if (!table.ok()) return;
  logdata::UpsertRun(*table, rec).ok();
}

logdata::LogRecord Campaign::MakeRecord(const ActiveRun& run,
                                        logdata::RunStatus status) const {
  const ForecastEntry& entry = *run.fc;
  logdata::LogRecord rec;
  rec.forecast = entry.spec.name;
  rec.region = entry.spec.region;
  rec.day = config_.first_day + run.day_index;
  rec.node = run.node;
  rec.code_version = entry.spec.code_version;
  rec.mesh_sides = entry.spec.mesh_sides;
  rec.timesteps = entry.spec.timesteps;
  rec.start_time = run.start_time;
  if (status == logdata::RunStatus::kCompleted) {
    rec.end_time = sim_.now();
    rec.walltime = sim_.now() - run.start_time;
  }
  rec.status = status;
  return rec;
}

void Campaign::LaunchRun(ForecastEntry* entry, int day_index) {
  double work = config_.cost_model.TotalCpuSeconds(entry->spec);
  if (config_.noise_sigma > 0.0) {
    work = rng_.LogNormalMedian(work, config_.noise_sigma);
  }
  ActiveRun run;
  run.fc = entry;
  run.day_index = day_index;
  run.node = entry->node;
  run.start_time = sim_.now();
  run.work = work;
  if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
    RevalidateObsCache();
    // Each id is resolved in the order the uncached calls interned it
    // (track, name, then each arg key and value): StrIds order the
    // exported lanes.
    if (obs_.runs_track == 0) obs_.runs_track = tr->Intern("runs");
    if (entry->trace_name == 0) {
      entry->trace_name = tr->Intern(entry->spec.name);
    }
    run.span = tr->BeginSpan(sim_.now(), obs::SpanCategory::kRun,
                             entry->trace_name, obs_.runs_track);
    if (obs_.day_key == 0) obs_.day_key = tr->Intern("day");
    tr->SpanArg(run.span, obs_.day_key,
                static_cast<double>(config_.first_day + day_index));
    if (obs_.node_key == 0) obs_.node_key = tr->Intern("node");
    tr->SpanArg(run.span, obs_.node_key, tr->Intern(entry->node));
    if (obs_.work_key == 0) obs_.work_key = tr->Intern("work");
    tr->SpanArg(run.span, obs_.work_key, work);
  }
  size_t index = active_runs_.size();
  pending_work_[entry->node] += work;
  active_runs_.push_back(std::move(run));
  ActiveRun& added = active_runs_[index];
  added.task = MachineOrDie(entry->node)->StartTask(
      work, [this, index] { OnRunComplete(index); }, 0.0, added.forecast(),
      added.span);
  if (config_.live_db != nullptr) {
    LiveDbUpsert(MakeRecord(added, logdata::RunStatus::kRunning));
  }
}

void Campaign::OnRunComplete(size_t run_index) {
  ActiveRun& run = active_runs_[run_index];
  run.task = 0;
  run.retired = true;
  pending_work_[run.node] -= run.work;
  double walltime = sim_.now() - run.start_time;
  int day = config_.first_day + run.day_index;
  std::vector<DaySample>& samples = result_.walltimes[run.forecast()];
  if (samples.empty()) samples.reserve(static_cast<size_t>(config_.num_days));
  samples.push_back(DaySample{day, walltime});

  if (run.span != 0) {
    if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
      tr->EndSpan(run.span, sim_.now());
    }
  }
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    RevalidateObsCache();
    if (obs_.runs_completed == nullptr) {
      obs_.runs_completed = m->counter("campaign.runs_completed");
      obs_.walltime = m->histogram(
          "campaign.walltime", {3600.0, 7200.0, 14400.0, 28800.0, 43200.0,
                                86400.0, 172800.0});
    }
    obs_.runs_completed->Increment();
    obs_.walltime->Observe(walltime);
    uint32_t& series = run.fc->walltime_series;
    if (series == kNoSeries) {
      series = m->series_id("campaign.walltime." + run.forecast());
    }
    m->RecordById(sim_.now(), series, walltime);
  }
  SpcCheck(run.forecast(), walltime);

  result_.records.push_back(MakeRecord(run, logdata::RunStatus::kCompleted));
  LiveDbUpsert(result_.records.back());
}

void Campaign::SpcCheck(const std::string& forecast, double walltime) {
  if (!config_.spc_replan) return;
  SpcState& st = spc_[forecast];
  st.history.push_back(walltime);
  if (!st.fitted) {
    if (st.history.size() >=
        static_cast<size_t>(std::max(config_.spc_baseline_days, 5))) {
      auto chart = logdata::FitControlChart(st.history);
      if (chart.ok()) {
        st.chart = *chart;
        st.fitted = true;
        st.history.clear();
      }
    }
    return;
  }
  // Only the newest sample can fire; earlier signals were already seen.
  bool fire = false;
  for (const auto& s : logdata::Monitor(st.chart, st.history)) {
    if (s.index == st.history.size() - 1 && s.above) {
      fire = true;
      break;
    }
  }
  if (!fire) return;
  ++result_.spc_signals;
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    m->counter("campaign.spc_signals")->Increment();
  }
  if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
    tr->Instant(sim_.now(), obs::SpanCategory::kSpc,
                "spc.signal:" + forecast, "spc");
  }
  // Re-plan: move the forecast to the least-loaded node and refit the
  // chart under the new placement (old limits no longer apply).
  auto it = forecasts_.find(forecast);
  if (it == forecasts_.end()) return;
  std::string target = LeastLoadedNode(it->second.node);
  st.fitted = false;
  st.history.clear();
  if (target.empty() || target == it->second.node) return;
  it->second.node = target;
  ++result_.spc_replans;
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    m->counter("campaign.spc_replans")->Increment();
  }
  if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
    tr->Instant(sim_.now(), obs::SpanCategory::kPlan,
                "spc.replan:" + forecast + "->" + target, "campaign");
  }
}

void Campaign::RevalidateObsCache() {
  const uint64_t epoch = obs::ObsEpoch();
  if (epoch == obs_.epoch) return;
  obs_ = ObsCache{};
  obs_.epoch = epoch;
  for (auto& [name, entry] : forecasts_) {
    entry.trace_name = 0;
    entry.walltime_series = kNoSeries;
  }
}

void Campaign::MetricsTick() {
  obs::MetricsRegistry* m = obs::ActiveMetrics();
  if (m == nullptr) return;
  RevalidateObsCache();
  if (obs_.node_util.empty()) {
    for (const auto& name : node_order_) {
      obs_.node_util.push_back(m->gauge("node.util." + name));
      obs_.node_tasks.push_back(m->gauge("node.tasks." + name));
    }
  }
  for (size_t i = 0; i < node_order_.size(); ++i) {
    const auto& mach = machines_.at(node_order_[i]);
    obs_.node_util[i]->Set(mach->AverageUtilization(0.0));
    obs_.node_tasks[i]->Set(static_cast<double>(mach->active_tasks()));
  }
  m->SampleAll(sim_.now());
  double next = sim_.now() + config_.metrics_sample_period;
  if (next <= config_.num_days * kDay) {
    sim_.ScheduleAt(next, [this] { MetricsTick(); });
  }
}

void Campaign::LaunchDay(int day_index) {
  ApplyEvents(day_index);
  RebalanceIfNeeded(day_index);
  for (auto& [name, entry] : forecasts_) {
    if (day_index < entry.added_day || day_index >= entry.removed_day) {
      continue;
    }
    LaunchRun(&entry, day_index);
  }
}

util::StatusOr<CampaignResult> Campaign::Run() {
  if (ran_) {
    return util::Status::FailedPrecondition("campaign already ran");
  }
  ran_ = true;
  if (machines_.empty()) {
    return util::Status::FailedPrecondition("no nodes");
  }
  if (!config_.fault_plan.empty()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(&sim_, config_.fault_plan);
    for (const auto& name : node_order_) {
      injector_->RegisterMachine(machines_.at(name).get());
    }
    injector_->AddListener(
        [this](const fault::FaultNotice& n) { OnFault(n); });
    // Priority -1: a crash at a launch instant lands before LaunchDay.
    injector_->Arm(/*priority=*/-1);
  }
  const size_t expected_runs =
      forecasts_.size() * static_cast<size_t>(config_.num_days);
  active_runs_.reserve(expected_runs);
  result_.records.reserve(expected_runs);
  for (int d = 0; d < config_.num_days; ++d) ScheduleDay(d);
  obs::TraceRecorder* tr = obs::ActiveTrace();
  if (tr != nullptr) {
    tr->SetClock([this] { return sim_.now(); });
  }
  if (obs::ActiveMetrics() != nullptr && config_.metrics_sample_period > 0) {
    double t_end = config_.num_days * kDay;
    double first = std::min(config_.metrics_sample_period, t_end);
    sim_.ScheduleAt(first, [this] { MetricsTick(); });
  }
  sim_.Run();
  if (injector_ != nullptr) {
    result_.faults_injected = injector_->faults_injected();
  }
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    m->SampleAll(sim_.now());
  }
  // Drop the clock before the campaign (and its simulator) can outlive
  // this call's caller-owned recorder usage.
  if (tr != nullptr) tr->SetClock(nullptr);

  // Anything still active stalled on a dead node: record as running.
  for (const auto& run : active_runs_) {
    if (run.task == 0) continue;
    result_.records.push_back(MakeRecord(run, logdata::RunStatus::kRunning));
  }

  // Keep per-forecast samples sorted by day (completions can interleave).
  for (auto& [name, samples] : result_.walltimes) {
    std::sort(samples.begin(), samples.end(),
              [](const DaySample& a, const DaySample& b) {
                return a.day < b.day;
              });
  }
  std::sort(result_.records.begin(), result_.records.end(),
            [](const logdata::LogRecord& a, const logdata::LogRecord& b) {
              if (a.forecast != b.forecast) return a.forecast < b.forecast;
              return a.day < b.day;
            });

  if (!config_.log_dir.empty()) {
    logdata::LogStore store(config_.log_dir);
    for (const auto& rec : result_.records) {
      FF_RETURN_IF_ERROR(store.Write(rec));
    }
  }
  return std::move(result_);
}

}  // namespace factory
}  // namespace ff
