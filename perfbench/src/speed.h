// Host-speed probe: binary searches in random 4 KiB pages of a 64 MiB
// arena, the core operation of a B+-tree probe, in code of the
// benchmark's own that uses none of the library.
//
// The virtual CPUs of a shared host run the same work at speeds that drift
// by a quarter and more over tens of seconds with the neighbours' load.
// The probe is timed around the set-up reps, and setup_s is reported at a
// reference speed: the median set-up time as measured, times the
// reference probe time over the median probe time. Over 8 seeds of
// t1_read on a 4-vCPU virtual machine this cut the spread (IQR over
// median) of setup_s from 0.197 to 0.089. The probe cannot get faster or
// slower with the library, so a change to the program moves setup_s as
// much as the measured time; the time as measured and the probe time are
// printed beside the result.
#pragma once

namespace perfbench {

/// Wall time of the probe, in ms. The arena is built on the first call.
double SpeedProbeMs();

/// The probe time at the reference speed (close to its time on a 2.1 GHz
/// Xeon virtual CPU).
constexpr double kReferenceSpeedProbeMs = 20.0;

/// A time measured while the probe took `probe_ms`, at the reference
/// speed.
inline double TimeAtReferenceSpeed(double measured, double probe_ms) {
  return measured * kReferenceSpeedProbeMs / probe_ms;
}

}  // namespace perfbench
