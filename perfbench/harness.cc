#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::Mean() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return values_.empty() ? 0 : sum / static_cast<double>(values_.size());
}

void Scheduler::Add(VirtualTime start, Step step) {
  actors_.push_back(std::make_unique<Actor>(Actor{SimContext(start),
                                                  std::move(step)}));
  ready_.emplace(start, actors_.size() - 1);
}

void Scheduler::Run() {
  while (!ready_.empty()) {
    auto [at, id] = ready_.top();
    ready_.pop();
    now_ = at;
    Actor* actor = actors_[id].get();
    bool more;
    {
      SimContext::Scope scope(&actor->ctx);
      more = actor->step(actor->ctx);
    }
    if (more) ready_.emplace(actor->ctx.now(), id);
  }
}

VirtualTime QuiesceTime(logbase::cluster::MiniCluster* cluster) {
  VirtualTime t = 0;
  logbase::dfs::Dfs* dfs = cluster->dfs();
  for (int i = 0; i < dfs->num_nodes(); i++) {
    t = std::max(t, dfs->data_node(i)->disk()->resource()->free_at());
  }
  logbase::sim::NetworkModel* net = cluster->network();
  for (int i = 0; i < net->num_nodes(); i++) {
    t = std::max(t, net->nic_tx(i)->free_at());
    t = std::max(t, net->nic_rx(i)->free_at());
  }
  return t;
}

ResourceBusy SnapshotBusy(logbase::cluster::MiniCluster* cluster) {
  ResourceBusy b;
  logbase::dfs::Dfs* dfs = cluster->dfs();
  for (int i = 0; i < dfs->num_nodes(); i++) {
    b.disk.push_back(dfs->data_node(i)->disk()->resource()->total_busy_us());
  }
  logbase::sim::NetworkModel* net = cluster->network();
  for (int i = 0; i < net->num_nodes(); i++) {
    b.nic_tx.push_back(net->nic_tx(i)->total_busy_us());
    b.nic_rx.push_back(net->nic_rx(i)->total_busy_us());
  }
  return b;
}

int Tracer::Open(const char* layer, const char* name, uint64_t op,
                 const SimContext* ctx) {
  VirtualTime v = ctx != nullptr ? ctx->now() : 0;
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(SpanRecord{layer, name, op, parent, v, v, HostNs(), 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int span, const SimContext* ctx) {
  SpanRecord& s = spans_[span];
  s.h_end = HostNs();
  s.v_end = ctx != nullptr ? ctx->now() : s.v_begin;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, Tracer::LayerSelf> Tracer::SelfTimeByLayer() const {
  std::vector<double> child_v(spans_.size(), 0), child_h(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    child_v[s.parent] += static_cast<double>(s.v_end - s.v_begin);
    child_h[s.parent] += static_cast<double>(s.h_end - s.h_begin);
  }
  std::map<std::string, LayerSelf> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    const SpanRecord& s = spans_[i];
    LayerSelf& l = out[s.layer];
    l.virtual_us += static_cast<double>(s.v_end - s.v_begin) - child_v[i];
    l.host_ns += static_cast<double>(s.h_end - s.h_begin) - child_h[i];
    l.spans++;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"layer\": \"%s\", \"name\": \"%s\", \"op\": %llu, "
                 "\"parent\": %d, \"v_begin_us\": %lld, \"v_end_us\": %lld, "
                 "\"h_begin_ns\": %lld, \"h_end_ns\": %lld}\n",
                 s.layer, s.name, static_cast<unsigned long long>(s.op),
                 s.parent, static_cast<long long>(s.v_begin),
                 static_cast<long long>(s.v_end),
                 static_cast<long long>(s.h_begin),
                 static_cast<long long>(s.h_end));
  }
  return std::fclose(f) == 0;
}

void HostOpClock::Record(const char* kind, int64_t ns) {
  auto& [total, count] = by_kind_[kind];
  total += static_cast<double>(ns);
  count++;
  sequence_.push_back(ns);
}

void HostOpClock::Report(RepResult* r) const {
  for (const char* kind : {"get", "write", "scan", "txn"}) {
    auto it = by_kind_.find(kind);
    r->host[std::string("host.ns_per_op.") + kind] =
        it == by_kind_.end() ? 0
                             : it->second.first /
                                   static_cast<double>(it->second.second);
  }
  size_t quarter = sequence_.size() / 4;
  double first = 0, last = 0;
  for (size_t i = 0; i < quarter; i++) {
    first += static_cast<double>(sequence_[i]);
    last += static_cast<double>(sequence_[sequence_.size() - 1 - i]);
  }
  r->host["host.ns_per_op.growth"] = first > 0 ? last / first : 0;
}

namespace {

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string SerializeRep(const RepResult& r) {
  std::string out;
  auto line = [&](std::initializer_list<std::string> fields) {
    bool first = true;
    for (const std::string& f : fields) {
      if (!first) out += '\t';
      out += f;
      first = false;
    }
    out += "\n";
  };
  for (const auto& [kind, values] : r.latency) {
    std::string joined;
    for (double v : values) {
      if (!joined.empty()) joined += ',';
      joined += Exact(v);
    }
    line({"latency", kind, joined});
  }
  for (const auto& [name, m] : r.virt) {
    line({"virt", name, Exact(m.value), m.unit, std::to_string(m.samples)});
  }
  for (const auto& [name, v] : r.layers) line({"layer", name, Exact(v)});
  for (const auto& [name, v] : r.props) line({"prop", name, Exact(v)});
  for (const auto& [name, v] : r.fingerprint) line({"fp", name, Exact(v)});
  for (const auto& [name, v] : r.host) line({"host", name, Exact(v)});
  for (const auto& [layer, l] : r.self_time) {
    line({"self", layer, Exact(l.virtual_us), Exact(l.host_ns),
          std::to_string(l.spans)});
  }
  line({"scalar", "span_us", Exact(r.span_us)});
  line({"scalar", "completed", std::to_string(r.completed)});
  line({"scalar", "calls", std::to_string(r.calls)});
  line({"scalar", "call_errors", std::to_string(r.call_errors)});
  line({"scalar", "setup_s", Exact(r.setup_s)});
  line({"scalar", "phase_host_s", Exact(r.phase_host_s)});
  line({"scalar", "attempted", std::to_string(r.attempted)});
  line({"scalar", "failed", std::to_string(r.failed)});
  line({"scalar", "rss_mb", Exact(r.rss_mb)});
  line({"bottleneck", r.bottleneck});
  for (const std::string& f : r.failures) line({"failure", f});
  line({"end"});
  return out;
}

bool ParseRep(const std::string& text, RepResult* r) {
  std::istringstream in(text);
  std::string row;
  bool complete = false;
  while (std::getline(in, row)) {
    std::vector<std::string> f;
    std::string field;
    std::istringstream fields(row);
    while (std::getline(fields, field, '\t')) f.push_back(field);
    if (f.empty()) continue;
    auto num = [&](size_t i) { return std::strtod(f[i].c_str(), nullptr); };
    auto count = [&](size_t i) {
      return std::strtoull(f[i].c_str(), nullptr, 10);
    };
    const std::string& kind = f[0];
    if (kind == "end") {
      complete = true;
    } else if (kind == "latency" && f.size() >= 2) {
      std::vector<double>& values = r->latency[f[1]];
      std::istringstream list(f.size() > 2 ? f[2] : "");
      std::string v;
      while (std::getline(list, v, ',')) {
        values.push_back(std::strtod(v.c_str(), nullptr));
      }
    } else if (kind == "virt" && f.size() == 5) {
      r->virt[f[1]] = Metric{num(2), f[3], count(4)};
    } else if (kind == "layer" && f.size() == 3) {
      r->layers[f[1]] = num(2);
    } else if (kind == "prop" && f.size() == 3) {
      r->props[f[1]] = num(2);
    } else if (kind == "fp" && f.size() == 3) {
      r->fingerprint[f[1]] = num(2);
    } else if (kind == "host" && f.size() == 3) {
      r->host[f[1]] = num(2);
    } else if (kind == "self" && f.size() == 5) {
      r->self_time[f[1]] = Tracer::LayerSelf{num(2), num(3), count(4)};
    } else if (kind == "scalar" && f.size() == 3) {
      if (f[1] == "span_us") r->span_us = num(2);
      if (f[1] == "completed") r->completed = count(2);
      if (f[1] == "calls") r->calls = count(2);
      if (f[1] == "call_errors") r->call_errors = count(2);
      if (f[1] == "setup_s") r->setup_s = num(2);
      if (f[1] == "phase_host_s") r->phase_host_s = num(2);
      if (f[1] == "attempted") r->attempted = count(2);
      if (f[1] == "failed") r->failed = count(2);
      if (f[1] == "rss_mb") r->rss_mb = num(2);
    } else if (kind == "bottleneck") {
      r->bottleneck = f.size() > 1 ? f[1] : "";
    } else if (kind == "failure" && f.size() > 1) {
      r->failures.push_back(f[1]);
    }
  }
  return complete;
}

}  // namespace perfbench
