#include "service/decomposition_service.h"

#include <algorithm>
#include <utility>

#include "graph/graph_io.h"

namespace receipt::service {

namespace {

/// Max requests one worker executes back-to-back per queue pop. Batching
/// groups queued requests targeting the same graph epoch so they run on
/// scratch that is already warm for exactly that graph shape.
constexpr size_t kMaxBatch = 8;

ServiceOptions NormalizeOptions(ServiceOptions options) {
  // A zero-capacity queue can never admit work: Submit would block forever
  // and zero-worker Execute would spin.
  options.queue_capacity = std::max<size_t>(1, options.queue_capacity);
  return options;
}

}  // namespace

DecompositionService::DecompositionService(GraphRegistry& registry,
                                           const ServiceOptions& options)
    : registry_(&registry),
      options_(NormalizeOptions(options)),
      cache_(options.cache_bytes, obs_.metrics) {
  RegisterInstruments();

  LiveOptions live_options;
  live_options.max_pending_edges =
      std::max<size_t>(1, options_.live_max_pending_edges);
  live_ = std::make_unique<LiveGraphManager>(*registry_, cache_, live_options,
                                             obs_.metrics);

  if (!options_.data_dir.empty()) {
    durability::DurabilityOptions durability_options;
    durability_options.data_dir = options_.data_dir;
    durability_options.fsync = options_.durability_fsync;
    durability_options.segment_bytes = options_.journal_segment_bytes;
    durability_options.snapshot_on_seal = options_.snapshot_on_seal;
    // Recovery runs before the worker pool exists, so replayed seals never
    // race live traffic. Failure leaves the service up but in-memory only
    // (durability_error_ set) — the embedder decides whether to abort.
    durability_ = durability::OpenWithRecovery(
        durability_options, *registry_, *live_, obs_.metrics,
        &recovery_report_, &durability_error_);
  }

  const int num_workers = std::max(0, options_.num_workers);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* worker = workers_.back().get();
    worker->thread = std::thread([this, worker] { WorkerMain(*worker); });
  }
}

DecompositionService::~DecompositionService() { Shutdown(/*drain=*/true); }

void DecompositionService::RegisterInstruments() {
  obs::MetricsRegistry& m = obs_.metrics;
  constexpr Status kStatuses[] = {Status::kOk, Status::kNotFound,
                                  Status::kBadRequest, Status::kCancelled,
                                  Status::kShutdown};
  for (const Status s : kStatuses) {
    requests_by_outcome_[static_cast<size_t>(s)] =
        m.GetCounter("receipt_requests_total",
                     "Decomposition requests resolved, by outcome.",
                     {{"outcome", StatusName(s)}});
  }
  submitted_total_ = m.GetCounter("receipt_service_submitted_total",
                                  "Submit/TrySubmit calls accepted.");
  completed_total_ = m.GetCounter("receipt_service_completed_total",
                                  "Queued requests whose future resolved.");
  batched_follow_ons_total_ = m.GetCounter(
      "receipt_service_batched_follow_ons_total",
      "Extra same-graph requests a worker took with one queue pop.");
  abandoned_total_ = m.GetCounter(
      "receipt_service_abandoned_total",
      "Tickets whose submitter walked away (client disconnect).");
  coalesced_total_ = m.GetCounter(
      "receipt_coalesced_total",
      "Submits joined to an identical in-flight request.");
  engine_runs_total_ = m.GetCounter("receipt_engine_runs_total",
                                    "Actual decomposition engine executions.");
  request_latency_ = m.GetHistogram(
      "receipt_request_latency_seconds",
      "Admission-to-response latency of queued decomposition requests.");
  queue_wait_ = m.GetHistogram(
      "receipt_queue_wait_seconds",
      "Dequeue-to-start delay: time a request sat in the queue.");
  engine_seconds_ = m.GetHistogram(
      "receipt_engine_run_seconds",
      "Wall time of one decomposition engine run (seconds_total).");
  const char* wedges_help = "Wedges traversed by engine runs, by phase.";
  wedges_counting_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                                  {{"phase", "counting"}});
  wedges_cd_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                            {{"phase", "cd"}});
  wedges_fd_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                            {{"phase", "fd"}});
  wedges_other_ = m.GetCounter("receipt_engine_wedges_total", wedges_help,
                               {{"phase", "other"}});
  const char* rounds_help = "Engine scheduling rounds, by kind.";
  rounds_sync_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                              {{"kind", "sync"}});
  rounds_frontier_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                                  {{"kind", "frontier"}});
  rounds_index_ = m.GetCounter("receipt_engine_rounds_total", rounds_help,
                               {{"kind", "index_build"}});
  huc_recounts_total_ =
      m.GetCounter("receipt_engine_huc_recounts_total",
                   "Hybrid Update Computation re-counts across runs.");
  dgm_compactions_total_ =
      m.GetCounter("receipt_engine_dgm_compactions_total",
                   "Dynamic Graph Maintenance compactions across runs.");
}

void DecompositionService::BridgePeelStats(const PeelStats& stats) {
  wedges_counting_->Increment(stats.wedges_counting);
  wedges_cd_->Increment(stats.wedges_cd);
  wedges_fd_->Increment(stats.wedges_fd);
  wedges_other_->Increment(stats.wedges_other);
  rounds_sync_->Increment(stats.sync_rounds);
  rounds_frontier_->Increment(stats.frontier_rounds);
  rounds_index_->Increment(stats.index_build_rounds);
  huc_recounts_total_->Increment(stats.huc_recounts);
  dgm_compactions_total_->Increment(stats.dgm_compactions);
  engine_seconds_->ObserveSeconds(stats.seconds_total);
}

std::shared_future<Response> DecompositionService::ReadyResponse(
    Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

std::shared_future<Response> DecompositionService::Submit(
    const Request& request) {
  return SubmitImpl(request, /*may_block=*/true, /*would_block=*/nullptr);
}

std::optional<std::shared_future<Response>> DecompositionService::TrySubmit(
    const Request& request) {
  bool would_block = false;
  auto future = SubmitImpl(request, /*may_block=*/false, &would_block);
  if (would_block) return std::nullopt;
  return future;
}

std::optional<DecompositionService::Ticket>
DecompositionService::TrySubmitTicket(const Request& request) {
  bool would_block = false;
  std::shared_ptr<Task> task;
  Ticket ticket;
  ticket.future_ = SubmitImpl(request, /*may_block=*/false, &would_block,
                              &task);
  if (would_block) return std::nullopt;
  ticket.task_ = task;
  return ticket;
}

void DecompositionService::Abandon(Ticket& ticket) {
  const auto task = ticket.task_.lock();
  ticket.task_.reset();  // a second Abandon on this ticket is a no-op
  if (task == nullptr) return;
  abandoned_total_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  ++task->abandoned;
  // Interest = the original ticketed submitter + every coalesced twin.
  // The run is only cancelled once nobody is left to read the result.
  if (task->abandoned > task->extra_submitters) task->control.RequestCancel();
}

Response DecompositionService::Execute(const Request& request) {
  // Without background workers only this thread can drain the queue, so a
  // blocking Submit against a full queue would deadlock. Use the
  // non-blocking submit and drain between attempts instead.
  if (options_.num_workers <= 0) {
    for (;;) {
      if (auto future = TrySubmit(request)) {
        RunQueuedInline();
        return future->get();
      }
      RunQueuedInline();  // queue full: make room, then retry
    }
  }
  return Submit(request).get();
}

std::shared_future<Response> DecompositionService::SubmitImpl(
    const Request& request, bool may_block, bool* would_block,
    std::shared_ptr<Task>* out_task) {
  Response rejection;
  if ((request.kind == RequestKind::kWing) !=
      IsWingAlgorithm(request.algorithm)) {
    rejection.status = Status::kBadRequest;
    rejection.error = std::string("algorithm ") +
                      AlgorithmName(request.algorithm) +
                      " cannot serve a " + RequestKindName(request.kind) +
                      " request";
    OutcomeCounter(Status::kBadRequest)->Increment();
    return ReadyResponse(std::move(rejection));
  }

  GraphHandle handle = registry_->Acquire(request.graph);
  if (!handle) {
    rejection.status = Status::kNotFound;
    rejection.error = "graph '" + request.graph + "' is not registered";
    OutcomeCounter(Status::kNotFound)->Increment();
    return ReadyResponse(std::move(rejection));
  }

  Request normalized = request;
  normalized.threads = std::max(1, request.threads);
  normalized.partitions = std::max(1, request.partitions);
  // The baselines never read `partitions`; normalize it out of the key so
  // equivalent requests coalesce and hit the cache regardless of the value.
  if (normalized.algorithm == Algorithm::kBup ||
      normalized.algorithm == Algorithm::kParb ||
      normalized.algorithm == Algorithm::kWingBup) {
    normalized.partitions = 1;
  }
  const CacheKey cache_key{normalized.graph, handle.epoch(), normalized.kind,
                           normalized.algorithm,
                           static_cast<uint32_t>(normalized.partitions)};

  // Fast path: an identical (epoch, params) result is already resident.
  if (auto hit = cache_.Get(cache_key)) {
    Response response;
    response.payload = std::move(hit);
    response.cache_hit = true;
    response.graph_epoch = cache_key.epoch;
    submitted_total_->Increment();
    OutcomeCounter(Status::kOk)->Increment();
    return ReadyResponse(std::move(response));
  }

  const CoalesceKey coalesce_key{cache_key, normalized.threads};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) {
      rejection.status = Status::kShutdown;
      rejection.error = "service is shutting down";
      OutcomeCounter(Status::kShutdown)->Increment();
      return ReadyResponse(std::move(rejection));
    }
    // Coalesce with an identical queued or executing request: both callers
    // share one engine run (and one future). A twin whose run was already
    // cancelled (every ticketed submitter abandoned it) is dead weight — a
    // fresh submitter must get a fresh task, not a guaranteed kCancelled.
    if (const auto it = inflight_.find(coalesce_key); it != inflight_.end()) {
      if (auto twin = it->second.lock();
          twin != nullptr && !twin->control.Cancelled()) {
        ++twin->extra_submitters;
        submitted_total_->Increment();
        coalesced_total_->Increment();
        // Instantaneous marker on the *joining* request's trace pointing
        // at the run it attached to; the engine spans live on the first
        // submitter's trace id.
        if (normalized.trace.enabled()) {
          normalized.trace.Emit("coalesce.attach",
                                obs::TraceRecorder::NowNs(), 0,
                                twin->request.trace.trace_id);
        }
        if (out_task != nullptr) *out_task = twin;
        return twin->future;
      }
      inflight_.erase(it);
    }
    if (queue_.size() < options_.queue_capacity) break;
    if (!may_block) {
      *would_block = true;
      return {};
    }
    queue_not_full_.wait(lock);
  }

  auto task = std::make_shared<Task>();
  task->request = std::move(normalized);
  task->handle = std::move(handle);
  task->cache_key = cache_key;
  task->coalesce_key = coalesce_key;
  task->future = task->promise.get_future().share();
  task->enqueue_ns = obs::TraceRecorder::NowNs();
  queue_.push_back(task);
  inflight_[coalesce_key] = task;
  submitted_total_->Increment();
  queue_not_empty_.notify_one();
  if (out_task != nullptr) *out_task = task;
  return task->future;
}

std::vector<std::shared_ptr<DecompositionService::Task>>
DecompositionService::PopBatchLocked() {
  std::vector<std::shared_ptr<Task>> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Batch same-graph follow-ons: they run on scratch already warm for this
  // exact graph shape, and skip a queue round-trip each. Never take work an
  // idle worker could start right now — batching trades queue overhead for
  // warmth, not parallelism.
  const uint64_t epoch = batch.front()->handle.epoch();
  for (auto it = queue_.begin();
       it != queue_.end() && queue_.size() > waiting_workers_ &&
       batch.size() < kMaxBatch;) {
    if ((*it)->handle.epoch() == epoch) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
      batched_follow_ons_total_->Increment();
    } else {
      ++it;
    }
  }
  return batch;
}

void DecompositionService::WorkerMain(Worker& worker) {
  for (;;) {
    std::vector<std::shared_ptr<Task>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiting_workers_;
      queue_not_empty_.wait(
          lock, [this] { return stopping_ || !queue_.empty(); });
      --waiting_workers_;
      if (queue_.empty()) {  // stopping and drained
        ++exited_workers_;
        return;
      }
      batch = PopBatchLocked();
      queue_not_full_.notify_all();
    }
    for (const auto& task : batch) ExecuteTask(task, worker.pool);
  }
}

size_t DecompositionService::RunQueuedInline() {
  // Serialize inline drains: concurrent callers (e.g. several Execute()s on
  // a zero-worker service) must not share inline_pool_'s workspaces.
  std::lock_guard<std::mutex> inline_lock(inline_mu_);
  size_t executed = 0;
  for (;;) {
    std::vector<std::shared_ptr<Task>> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      batch = PopBatchLocked();
      queue_not_full_.notify_all();
    }
    for (const auto& task : batch) {
      ExecuteTask(task, inline_pool_);
      ++executed;
    }
  }
  return executed;
}

void DecompositionService::ExecuteTask(const std::shared_ptr<Task>& task,
                                       engine::WorkspacePool& pool) {
  // Queue wait: admission stamp → this worker picking the task up. Spans
  // the same interval whether the task then runs, re-hits the cache, or
  // was cancelled while waiting.
  const uint64_t start_ns = obs::TraceRecorder::NowNs();
  if (task->enqueue_ns != 0) {
    const uint64_t wait_ns =
        start_ns >= task->enqueue_ns ? start_ns - task->enqueue_ns : 0;
    queue_wait_->Observe(wait_ns);
    task->request.trace.Emit("queue.wait", task->enqueue_ns, wait_ns);
  }

  Response response;
  response.graph_epoch = task->cache_key.epoch;
  // Double-checked cache: an identical request may have completed between
  // this task's submit-time miss and now.
  if (auto hit = cache_.Get(task->cache_key)) {
    response.payload = std::move(hit);
    response.cache_hit = true;
  } else if (task->control.Cancelled()) {
    response.status = Status::kCancelled;
    response.error = "cancelled before execution";
  } else {
    engine_runs_total_->Increment();
    response = RunEngine(*task, pool);
    if (response.status == Status::kOk) {
      BridgePeelStats(response.payload->stats);
      cache_.Put(task->cache_key, response.payload);
    }
  }
  FinishTask(task, std::move(response));
}

Response DecompositionService::RunEngine(Task& task,
                                         engine::WorkspacePool& pool) {
  obs::ScopedSpan run_span(task.request.trace, "engine.run");
  Response response;
  response.graph_epoch = task.cache_key.epoch;
  const BipartiteGraph& graph = task.handle.graph();

  // Pre-size this worker's scratch to the largest resident graph, not just
  // the request's: whatever graph the next batch targets, the buffers are
  // already big enough — steady-state serving never allocates.
  const VertexId capacity =
      std::max(registry_->MaxVertices(), graph.num_vertices());
  pool.Prepare(task.request.threads, capacity, capacity);

  std::shared_ptr<Payload> payload = RunDecomposition(
      graph, task.request, pool, /*use_huc=*/true, &task.control);
  if (task.control.Cancelled()) {
    response.status = Status::kCancelled;
    response.error = "cancelled mid-run";
  } else {
    response.payload = std::move(payload);
  }
  return response;
}

void DecompositionService::FinishTask(const std::shared_ptr<Task>& task,
                                      Response response) {
  completed_total_->Increment();
  if (task->enqueue_ns != 0) {
    const uint64_t now = obs::TraceRecorder::NowNs();
    if (now > task->enqueue_ns) {
      request_latency_->Observe(now - task->enqueue_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    response.coalesced = task->extra_submitters > 0;
    const auto it = inflight_.find(task->coalesce_key);
    if (it != inflight_.end()) {
      const auto current = it->second.lock();
      if (current == nullptr || current == task) inflight_.erase(it);
    }
    // Once out of inflight_ no submitter can join, so this counts every
    // request the task resolves: the ticketed one and each coalesced twin.
    OutcomeCounter(response.status)->Increment(1 + task->extra_submitters);
  }
  task->promise.set_value(std::move(response));
}

void DecompositionService::Shutdown(bool drain) {
  std::vector<std::shared_ptr<Task>> dropped;
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    if (!drain) {
      dropped.assign(queue_.begin(), queue_.end());
      queue_.clear();
      // Ask executing tasks (still tracked in inflight_) to stop at their
      // next engine check point.
      for (const auto& [key, weak] : inflight_) {
        if (auto task = weak.lock()) task->control.RequestCancel();
      }
    }
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
    queue_not_empty_.notify_all();
    queue_not_full_.notify_all();
  }
  for (const auto& task : dropped) {
    Response response;
    response.status = Status::kCancelled;
    response.error = "dropped by shutdown";
    response.graph_epoch = task->cache_key.epoch;
    FinishTask(task, std::move(response));
  }
  // No background workers: drain what remains here so every outstanding
  // future still resolves.
  if (drain && workers_.empty()) RunQueuedInline();
  if (join_here) {
    for (const auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
}

DecompositionService::Stats DecompositionService::stats() const {
  Stats stats;
  stats.submitted = submitted_total_->Value();
  stats.completed = completed_total_->Value();
  stats.cache_hits = cache_.stats().hits;
  stats.coalesced = coalesced_total_->Value();
  stats.engine_runs = engine_runs_total_->Value();
  stats.batched_follow_ons = batched_follow_ons_total_->Value();
  stats.cancelled = RequestsWithOutcome(Status::kCancelled);
  stats.abandoned = abandoned_total_->Value();
  return stats;
}

ResultCache::Stats DecompositionService::cache_stats() const {
  return cache_.stats();
}

size_t DecompositionService::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t DecompositionService::IdleWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_workers_ + exited_workers_;
}

uint64_t DecompositionService::WorkspaceGrowths() const {
  uint64_t total = inline_pool_.TotalGrowths();
  for (const auto& worker : workers_) total += worker->pool.TotalGrowths();
  return total;
}

Status DecompositionService::RegisterGraph(const std::string& name,
                                           BipartiteGraph graph,
                                           uint64_t* epoch_out,
                                           std::string* error) {
  durability::JournalRecord record;
  record.type = durability::JournalRecord::Type::kRegister;
  record.graph = name;
  record.epoch = registry_->AllocateEpoch();
  record.num_u = graph.num_u();
  record.num_v = graph.num_v();
  record.edges = graph.ToEdges();
  const ApplyResult result = live_->Apply(record);
  if (result.status != Status::kOk) {
    if (error != nullptr) *error = result.error;
    return result.status;
  }
  if (epoch_out != nullptr) *epoch_out = record.epoch;
  return Status::kOk;
}

Status DecompositionService::RegisterGraphFile(const std::string& name,
                                               const std::string& path,
                                               uint64_t* epoch_out,
                                               std::string* error) {
  std::string load_error;
  auto loaded = LoadGraphFile(path, &load_error);
  if (!loaded.has_value()) {
    if (error != nullptr) *error = path + ": " + load_error;
    return Status::kBadRequest;
  }
  return RegisterGraph(name, std::move(*loaded), epoch_out, error);
}

Status DecompositionService::UnregisterGraph(const std::string& name,
                                             std::string* error) {
  if (!registry_->Acquire(name)) {
    if (error != nullptr) *error = "graph '" + name + "' is not registered";
    return Status::kNotFound;
  }
  durability::JournalRecord record;
  record.type = durability::JournalRecord::Type::kUnregister;
  record.graph = name;
  const ApplyResult result = live_->Apply(record);
  if (result.status != Status::kOk && error != nullptr) *error = result.error;
  return result.status;
}

}  // namespace receipt::service
