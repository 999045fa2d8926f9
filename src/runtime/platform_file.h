// Textual platform descriptions.
//
// The paper's porting story is "recompile the kernel module for the new
// board" (§4). For a library, the equivalent is a board file: a small
// `key = value` document describing the platform, parsed into a
// KernelConfig at runtime, so adding a board needs no recompilation at
// all.
//
//     name         = MYBOARD
//     dp_ram_kb    = 64
//     page_size    = 2048
//     tlb_entries  = 16
//     cpu_mhz      = 200
//     imu_latency  = 4
//     pipelined    = false
//     posted_writes= false
//     pld_les      = 16640
//     policy       = lru          ; wsfifo (default) | fifo | lru | random
//     copy_mode    = single       ; double | single | iommu
//     prefetch     = clean        ; none (default) | clean
//
// Unknown keys and malformed values are errors (a silently ignored
// typo in a board file is a debugging session).
#pragma once

#include <string_view>

#include "base/status.h"
#include "os/kernel.h"

namespace vcop::runtime {

/// Parses a board file into a KernelConfig, starting from the EPXA1
/// defaults (every key is optional).
Result<os::KernelConfig> ParsePlatformFile(std::string_view text);

/// Renders `config` as a board file (round-trips through the parser).
std::string WritePlatformFile(const os::KernelConfig& config);

}  // namespace vcop::runtime
