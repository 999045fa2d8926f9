// A minimal model of the calling user process.
//
// FPGA_EXECUTE "puts the calling process in an interruptible sleep
// mode" (§3.1); the process sleeps for the whole coprocessor run and is
// woken by the end-of-operation service. Process tracks that lifecycle
// so tests can assert the paper's blocking semantics.
#pragma once

#include <string>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::os {

enum class ProcessState : u8 { kRunning, kSleeping };

class Process {
 public:
  explicit Process(u32 pid) : pid_(pid) {}

  u32 pid() const { return pid_; }
  ProcessState state() const { return state_; }
  bool sleeping() const { return state_ == ProcessState::kSleeping; }

  /// Enters interruptible sleep (at FPGA_EXECUTE).
  void Sleep(Picoseconds now) {
    VCOP_CHECK_MSG(state_ == ProcessState::kRunning, "double sleep");
    state_ = ProcessState::kSleeping;
    slept_at_ = now;
  }

  /// Wakes the process (end-of-operation or abort).
  void Wake(Picoseconds now) {
    VCOP_CHECK_MSG(state_ == ProcessState::kSleeping, "wake while running");
    state_ = ProcessState::kRunning;
    total_slept_ += now - slept_at_;
    ++wakeups_;
  }

  /// Cumulative time spent blocked in FPGA_EXECUTE.
  Picoseconds total_slept() const { return total_slept_; }
  u64 wakeups() const { return wakeups_; }

 private:
  u32 pid_;
  ProcessState state_ = ProcessState::kRunning;
  Picoseconds slept_at_ = 0;
  Picoseconds total_slept_ = 0;
  u64 wakeups_ = 0;
};

}  // namespace vcop::os
