// Run steps and report population shared by run_testbed and run_cluster.
//
// Both experiment paths must fill the same ExperimentReport the same way —
// historically the cluster path re-derived a subset by hand and silently
// left most fields zero (no CPU summary, no SIP census, no steady-state
// blocking, ...). The horizon heuristic, the steady CPU window, fault
// arming, telemetry start/stop and the callee-quality merge had the same
// duplication problem. Everything either path derives from the run now
// lives here, once.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "loadgen/scenario.hpp"
#include "monitor/capture.hpp"
#include "monitor/report.hpp"

namespace pbxcap {
namespace loadgen {
class SipCaller;
class SipReceiver;
}  // namespace loadgen
namespace net {
class Link;
}
namespace pbx {
class AsteriskPbx;
}
namespace rtp {
class FluidEngine;
}
namespace telemetry {
class Telemetry;
}
}  // namespace pbxcap

namespace pbxcap::exp {

/// How long to run the simulator for one experiment: placement window, plus
/// the hold time scaled by the distribution-tail slack (deterministic holds
/// end exactly at window + h; stochastic models get 4x for the tail), plus
/// the caller-supplied drain for BYE handshakes and retransmission timers.
[[nodiscard]] Duration run_horizon(const loadgen::CallScenario& scenario, Duration drain);

/// The loaded steady interval the CPU summaries cover: after the ramp (one
/// hold time) until the placement window closes. When holds outlast the
/// window (short smoke runs) it falls back to the window's second half, so
/// the interval is never empty.
struct SteadyWindow {
  TimePoint from;
  TimePoint to;
};
[[nodiscard]] SteadyWindow steady_cpu_window(const loadgen::CallScenario& scenario);

/// Starts `tel`'s per-second sampler on `simulator` and attaches its
/// profiler (plus the profiler's counter-track series when
/// `profile_series`). With a fluid engine, streams leave fluid mode before
/// each sample tick and a pre-sample flush keeps every row exact.
void start_telemetry(telemetry::Telemetry& tel, sim::Simulator& simulator,
                     rtp::FluidEngine* fluid, bool profile_series);

/// Cancels the pending sample tick and detaches the profiler; call after the
/// run, before the simulator dies.
void stop_telemetry(telemetry::Telemetry& tel);

/// Arms `plan` against `targets` on `simulator` in `injector`. A fluid
/// engine, when given, drops its streams to per-packet mode before every
/// event; a tracer, when given, records one span per event.
void arm_faults(std::optional<fault::FaultInjector>& injector, sim::Simulator& simulator,
                const fault::FaultPlan& plan, fault::FaultTargets targets,
                rtp::FluidEngine* fluid, telemetry::SpanTracer* tracer);

/// Copies the receiver-side heard quality into the caller's per-call
/// records; call after finalize_remaining(), before build_report.
void merge_callee_quality(loadgen::SipCaller& caller, const loadgen::SipReceiver& receiver);

/// One PBX's worth of observation sources. The captures may be null (the
/// corresponding census fields then stay zero for that backend).
struct BackendSources {
  const pbx::AsteriskPbx* pbx{nullptr};
  const monitor::SipCapture* sip{nullptr};
  const monitor::RtpCapture* rtp{nullptr};
};

/// Builds the full ExperimentReport from a finished run: call outcomes and
/// steady-state blocking from the caller's log, voice-quality summaries,
/// per-backend channel/CPU/RTP observations (summed or merged over the
/// fleet), the SIP message census, retransmission totals across all three
/// transaction layers, fault/overload counters, impairment drops over
/// `links` (null entries skipped), and the DES event count — summed over
/// the shards of a sharded run. Call after merge_callee_quality().
[[nodiscard]] monitor::ExperimentReport build_report(
    const loadgen::CallScenario& scenario, std::uint64_t seed,
    const loadgen::SipCaller& caller, const loadgen::SipReceiver& receiver,
    const std::vector<BackendSources>& backends, const std::vector<const net::Link*>& links,
    std::uint64_t events_processed);

}  // namespace pbxcap::exp
