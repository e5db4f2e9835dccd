#include "exp/report_util.hpp"

#include <algorithm>

#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "net/link.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "rtp/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace pbxcap::exp {

Duration run_horizon(const loadgen::CallScenario& scenario, Duration drain) {
  // Hold tail: deterministic holds end exactly at window + h; stochastic
  // models need slack for the distribution's tail before the drain cutoff.
  const double hold_tail_factor =
      scenario.hold_model == sim::HoldTimeModel::kDeterministic ? 1.0 : 4.0;
  return scenario.placement_window +
         Duration::from_seconds(scenario.hold_time.to_seconds() * hold_tail_factor) + drain;
}

SteadyWindow steady_cpu_window(const loadgen::CallScenario& scenario) {
  Duration from = std::min(scenario.hold_time, scenario.placement_window);
  if (from >= scenario.placement_window) {
    from = Duration::nanos(scenario.placement_window.ns() / 2);
  }
  return {TimePoint::at(from), TimePoint::at(scenario.placement_window)};
}

void start_telemetry(telemetry::Telemetry& tel, sim::Simulator& simulator,
                     rtp::FluidEngine* fluid, bool profile_series) {
  const Duration period = tel.config().sample_period;
  if (fluid != nullptr) {
    fluid->set_boundary_period(period);
    tel.sampler().set_pre_sample_hook([fluid] { fluid->flush_all(); });
  }
  tel.sampler().start(simulator, period);
  if (tel.profiler() != nullptr) {
    tel.profiler()->attach(simulator);
    if (profile_series) tel.profiler()->start_series(period);  // Chrome counter tracks
  }
}

void stop_telemetry(telemetry::Telemetry& tel) {
  tel.sampler().stop();
  if (tel.profiler() != nullptr) tel.profiler()->detach();
}

void arm_faults(std::optional<fault::FaultInjector>& injector, sim::Simulator& simulator,
                const fault::FaultPlan& plan, fault::FaultTargets targets,
                rtp::FluidEngine* fluid, telemetry::SpanTracer* tracer) {
  injector.emplace(simulator, plan, targets);
  if (fluid != nullptr) injector->set_pre_apply([fluid] { fluid->on_transient(); });
  if (tracer != nullptr) injector->set_tracer(tracer);
  injector->arm();
}

void merge_callee_quality(loadgen::SipCaller& caller, const loadgen::SipReceiver& receiver) {
  for (auto& record : caller.log().records_mutable()) {
    if (const auto* q = receiver.finished(record.call_index)) {
      record.mos_callee_heard = q->mos;
      record.loss_callee_heard = q->effective_loss;
      record.jitter_callee_heard = q->jitter;
      record.rtp_received_callee = q->rtp_received;
    }
  }
}

monitor::ExperimentReport build_report(const loadgen::CallScenario& scenario, std::uint64_t seed,
                                       const loadgen::SipCaller& caller,
                                       const loadgen::SipReceiver& receiver,
                                       const std::vector<BackendSources>& backends,
                                       const std::vector<const net::Link*>& links,
                                       std::uint64_t events_processed) {
  const monitor::CallLog& log = caller.log();
  monitor::ExperimentReport report;
  report.offered_erlangs = scenario.offered_erlangs();
  report.arrival_rate_per_s = scenario.arrival_rate_per_s;
  report.hold_time = scenario.hold_time;
  report.seed = seed;

  report.calls_attempted = log.attempted();
  report.calls_completed = log.completed();
  report.calls_blocked = log.blocked();
  report.calls_failed = log.failed();
  report.blocking_probability = log.blocking_probability();
  const TimePoint steady_from =
      TimePoint::at(std::min(scenario.hold_time, scenario.placement_window));
  report.blocking_probability_steady = log.blocking_probability_since(steady_from);
  report.calls_attempted_steady = log.attempted_since(steady_from);

  const SteadyWindow cpu = steady_cpu_window(scenario);

  report.sip_retransmissions =
      caller.transactions().total_retransmissions() + receiver.transactions().total_retransmissions();
  for (const BackendSources& backend : backends) {
    if (backend.pbx != nullptr) {
      const pbx::AsteriskPbx& pbx = *backend.pbx;
      report.channels_configured += pbx.channels().capacity();
      report.channels_peak += pbx.channels().peak();
      report.cpu_utilization.merge(pbx.cpu().utilization(cpu.from, cpu.to));
      report.rtp_relayed += pbx.rtp_relayed();
      report.transcoded_bridges += pbx.transcoded_bridges();
      report.transcoded_rtp += pbx.transcoded_rtp();
      report.sip_retransmissions += pbx.transactions().total_retransmissions();
      report.overload_rejections += pbx.overload_rejections();
      report.sip_queue_dropped += pbx.sip_queue_dropped();
      const pbx::AcdSubsystem& acd = pbx.acd();
      if (acd.enabled()) {
        for (std::size_t qi = 0; qi < acd.queue_count(); ++qi) {
          const pbx::AcdQueueStats& qs = acd.stats(qi);
          report.acd.offered += qs.offered;
          report.acd.queued += qs.queued;
          report.acd.served += qs.served;
          report.acd.abandoned += qs.abandoned;
          report.acd.timed_out += qs.timed_out;
          report.acd.voicemail += qs.voicemail;
          report.acd.blocked_full += qs.blocked_full;
          report.acd.announcements += qs.announcements;
          report.acd.serve_retries += qs.serve_retries;
          report.acd.serve_failures += qs.serve_failures;
          report.acd.wait_s.merge(qs.wait_s);
          report.acd.wait_served_s.merge(qs.wait_served_s);
          report.acd.busy_agent_s += qs.busy_agent_s;
          report.acd.agents += static_cast<std::uint32_t>(acd.agent_count(qi));
        }
      }
    }
    if (backend.sip != nullptr) {
      const monitor::SipCapture& sip = *backend.sip;
      report.sip_total += sip.total();
      report.sip_invite += sip.invites();
      report.sip_100 += sip.trying_100();
      report.sip_180 += sip.ringing_180();
      report.sip_200 += sip.ok_200();
      report.sip_ack += sip.acks();
      report.sip_bye += sip.byes();
      report.sip_errors += sip.errors();
    }
    if (backend.rtp != nullptr) report.rtp_packets_at_pbx += backend.rtp->packets_in();
  }

  report.mos = log.mos_summary();
  report.setup_delay_ms = log.setup_delay_summary();
  report.effective_loss = log.loss_summary();
  report.jitter_ms = log.jitter_summary();

  report.calls_retried = caller.retries();
  report.retries_rerouted = caller.retries_rerouted();
  report.codec_rejections_488 = receiver.rejected_488();
  for (const net::Link* link : links) {
    if (link == nullptr) continue;
    for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
      const net::LinkDirectionStats& stats = link->stats_from(end);
      report.link_dropped_impairment += stats.dropped_impairment;
      report.trunk_frames += stats.trunk_frames;
      report.trunk_mini_frames += stats.trunk_mini_frames;
    }
  }

  report.events_processed = events_processed;
  return report;
}

}  // namespace pbxcap::exp
