#include "runtime/platform_file.h"

#include <cctype>
#include <limits>
#include <optional>

#include "base/table.h"
#include "mem/page.h"
#include "runtime/config.h"

namespace vcop::runtime {
namespace {

std::string Trim(std::string_view s) {
  usize begin = 0;
  usize end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::optional<u64> ParseU64(const std::string& value) {
  if (value.empty()) return std::nullopt;
  u64 out = 0;
  for (const char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    const u64 digit = static_cast<u64>(c - '0');
    // Refuse values past u64 instead of letting them wrap into range.
    if (out > (std::numeric_limits<u64>::max() - digit) / 10) {
      return std::nullopt;
    }
    out = out * 10 + digit;
  }
  return out;
}

std::optional<bool> ParseBool(const std::string& value) {
  const std::string v = Lower(value);
  if (v == "true" || v == "yes" || v == "1" || v == "on") return true;
  if (v == "false" || v == "no" || v == "0" || v == "off") return false;
  return std::nullopt;
}

Status LineError(usize line, const std::string& message) {
  return InvalidArgumentError(
      StrFormat("platform file line %zu: %s", line, message.c_str()));
}

}  // namespace

Result<os::KernelConfig> ParsePlatformFile(std::string_view text) {
  os::KernelConfig config = Epxa1Config();

  usize line_number = 0;
  usize cursor = 0;
  while (cursor <= text.size()) {
    const usize end = text.find('\n', cursor);
    std::string_view raw =
        text.substr(cursor, end == std::string_view::npos
                                ? std::string_view::npos
                                : end - cursor);
    cursor = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_number;

    // Strip comments.
    const usize comment = raw.find_first_of(";#");
    if (comment != std::string_view::npos) raw = raw.substr(0, comment);
    const std::string line = Trim(raw);
    if (line.empty()) continue;

    const usize eq = line.find('=');
    if (eq == std::string::npos) {
      return LineError(line_number, "expected 'key = value'");
    }
    const std::string key = Lower(Trim(std::string_view(line).substr(0, eq)));
    const std::string value = Trim(std::string_view(line).substr(eq + 1));
    if (value.empty()) return LineError(line_number, "empty value");

    auto number = [&](u64 lo, u64 hi) -> Result<u64> {
      const std::optional<u64> v = ParseU64(value);
      if (!v.has_value() || *v < lo || *v > hi) {
        return LineError(line_number,
                         StrFormat("'%s' must be an integer in [%llu, %llu]",
                                   key.c_str(),
                                   static_cast<unsigned long long>(lo),
                                   static_cast<unsigned long long>(hi)));
      }
      return *v;
    };
    auto boolean = [&]() -> Result<bool> {
      const std::optional<bool> v = ParseBool(value);
      if (!v.has_value()) {
        return LineError(
            line_number,
            StrFormat("'%s' must be a boolean (true/false, yes/no, on/off, "
                      "1/0), got '%s'",
                      key.c_str(), value.c_str()));
      }
      return *v;
    };

    if (key == "name") {
      config.platform_name = value;
    } else if (key == "dp_ram_kb") {
      Result<u64> v = number(1, 1 << 16);
      if (!v.ok()) return v.status();
      config.dp_ram_bytes = static_cast<u32>(v.value() * 1024);
    } else if (key == "page_size") {
      // Byte-granular: the frame granule may go below 1 KB.
      Result<u64> v = number(512, 65536);
      if (!v.ok()) return v.status();
      if (!IsPowerOfTwo(v.value())) {
        return LineError(line_number, "page_size must be a power of two");
      }
      config.page_bytes = static_cast<u32>(v.value());
    } else if (key == "tlb_entries") {
      Result<u64> v = number(1, 1024);
      if (!v.ok()) return v.status();
      config.tlb_entries = static_cast<u32>(v.value());
    } else if (key == "cpu_mhz") {
      Result<u64> v = number(1, 10'000);
      if (!v.ok()) return v.status();
      config.costs.cpu_clock = Frequency::MHz(v.value());
    } else if (key == "imu_latency") {
      Result<u64> v = number(2, 64);
      if (!v.ok()) return v.status();
      config.imu_access_latency = static_cast<u32>(v.value());
    } else if (key == "pipelined") {
      Result<bool> v = boolean();
      if (!v.ok()) return v.status();
      config.imu_pipelined = v.value();
    } else if (key == "posted_writes") {
      Result<bool> v = boolean();
      if (!v.ok()) return v.status();
      config.imu_posted_writes = v.value();
    } else if (key == "pld_les") {
      Result<u64> v = number(100, 1 << 24);
      if (!v.ok()) return v.status();
      config.pld_capacity_les = static_cast<u32>(v.value());
    } else if (key == "policy") {
      const std::string v = Lower(value);
      if (v == "fifo") {
        config.vim.policy = os::PolicyKind::kFifo;
      } else if (v == "lru") {
        config.vim.policy = os::PolicyKind::kLru;
      } else if (v == "random") {
        config.vim.policy = os::PolicyKind::kRandom;
      } else if (v == "wsfifo") {
        config.vim.policy = os::PolicyKind::kWsFifo;
      } else {
        return LineError(line_number, "policy must be fifo|lru|random|wsfifo");
      }
    } else if (key == "copy_mode") {
      const std::string v = Lower(value);
      if (v == "double") {
        config.vim.copy_mode = mem::CopyMode::kDoubleCopy;
      } else if (v == "single") {
        config.vim.copy_mode = mem::CopyMode::kSingleCopy;
      } else if (v == "dma") {
        config.vim.copy_mode = mem::CopyMode::kDma;
      } else if (v == "iommu") {
        config.vim.copy_mode = mem::CopyMode::kIommu;
      } else {
        return LineError(line_number,
                         "copy_mode must be double|single|dma|iommu");
      }
    } else if (key == "prefetch") {
      const std::string v = Lower(value);
      if (v == "none") {
        config.vim.prefetch = os::PrefetchKind::kNone;
      } else if (v == "clean") {
        config.vim.prefetch = os::PrefetchKind::kClean;
      } else {
        return LineError(line_number, "prefetch must be none|clean");
      }
    } else if (key == "service_ring") {
      Result<u64> v = number(2, 32768);
      if (!v.ok()) return v.status();
      if (!IsPowerOfTwo(v.value())) {
        return LineError(line_number,
                         "service_ring must be a power of two");
      }
      config.service.ring_entries = static_cast<u32>(v.value());
    } else if (key == "service_rate") {
      Result<u64> v = number(0, 1'000'000'000);
      if (!v.ok()) return v.status();
      config.service.admit_rate = v.value();
    } else if (key == "service_burst") {
      Result<u64> v = number(1, 1 << 20);
      if (!v.ok()) return v.status();
      config.service.admit_burst = static_cast<u32>(v.value());
    } else if (key == "config_slots") {
      Result<u64> v = number(1, 64);
      if (!v.ok()) return v.status();
      config.config_slots = static_cast<u32>(v.value());
    } else if (key.rfind("page_size_obj", 0) == 0) {
      const std::optional<u64> id = ParseU64(key.substr(13));
      if (!id.has_value() || *id >= hw::kMaxObjects) {
        return LineError(line_number,
                         StrFormat("'%s': object id must be in [0, %u]",
                                   key.c_str(), hw::kMaxObjects - 1));
      }
      if (*id == hw::kParamObject) {
        return LineError(
            line_number,
            StrFormat("'%s': object %u is reserved for parameter passing",
                      key.c_str(), hw::kParamObject));
      }
      Result<u64> v =
          number(mem::kMinObjectPageBytes, mem::kMaxObjectPageBytes);
      if (!v.ok()) return v.status();
      if (!IsPowerOfTwo(v.value())) {
        return LineError(
            line_number,
            StrFormat("'%s' must be a power of two", key.c_str()));
      }
      config.object_page_bytes[*id] = static_cast<u32>(v.value());
    } else {
      return LineError(line_number, "unknown key '" + key + "'");
    }
  }

  if (config.dp_ram_bytes % config.page_bytes != 0) {
    return InvalidArgumentError(
        "dp_ram_kb must be a whole number of pages");
  }
  return config;
}

std::string WritePlatformFile(const os::KernelConfig& config) {
  std::string out;
  out += "name = " + config.platform_name + "\n";
  out += StrFormat("dp_ram_kb = %u\n", config.dp_ram_bytes / 1024);
  out += StrFormat("page_size = %u\n", config.page_bytes);
  for (u32 id = 0; id < hw::kMaxObjects; ++id) {
    if (config.object_page_bytes[id] != 0) {
      out += StrFormat("page_size_obj%u = %u\n", id,
                       config.object_page_bytes[id]);
    }
  }
  out += StrFormat("tlb_entries = %u\n", config.tlb_entries);
  out += StrFormat("cpu_mhz = %llu\n",
                   static_cast<unsigned long long>(
                       config.costs.cpu_clock.hertz() / 1'000'000));
  out += StrFormat("imu_latency = %u\n", config.imu_access_latency);
  out += StrFormat("pipelined = %s\n",
                   config.imu_pipelined ? "true" : "false");
  out += StrFormat("posted_writes = %s\n",
                   config.imu_posted_writes ? "true" : "false");
  out += StrFormat("pld_les = %u\n", config.pld_capacity_les);
  out += StrFormat("policy = %s\n",
                   std::string(ToString(config.vim.policy)).c_str());
  const char* copy = config.vim.copy_mode == mem::CopyMode::kDoubleCopy
                         ? "double"
                     : config.vim.copy_mode == mem::CopyMode::kSingleCopy
                         ? "single"
                     : config.vim.copy_mode == mem::CopyMode::kDma
                         ? "dma"
                         : "iommu";
  out += StrFormat("copy_mode = %s\n", copy);
  out += StrFormat("prefetch = %s\n",
                   std::string(ToString(config.vim.prefetch)).c_str());
  out += StrFormat("service_ring = %u\n", config.service.ring_entries);
  out += StrFormat("service_rate = %llu\n",
                   static_cast<unsigned long long>(config.service.admit_rate));
  out += StrFormat("service_burst = %u\n", config.service.admit_burst);
  out += StrFormat("config_slots = %u\n", config.config_slots);
  return out;
}

}  // namespace vcop::runtime
