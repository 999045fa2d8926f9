// A move-only `void()` callable with inline small-buffer storage.
//
// The event queue dispatches tens of millions of closures per run;
// std::function heap-allocates captures beyond its (implementation
// defined, typically 16-byte) small-object limit and must stay
// copyable, which forces copy-constructible captures and a vtable-ish
// manager call per copy. InlineFunction is the minimal replacement the
// kernel needs: move-only (actions are moved, never copied — see
// EventQueueTest.ActionsAreMovedNotCopied), with a 48-byte inline
// buffer sized for the largest closure the simulator schedules (the
// VIM's clean-unit completion, about 40 bytes of captures). Larger
// captures spill to one heap allocation instead of failing to compile.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "base/types.h"

namespace vcop::sim {

class InlineFunction {
 public:
  /// Captures up to this many bytes live in the entry itself; every
  /// scheduled closure in the hot paths must stay under it (guaranteed
  /// minimum per the kernel contract: 32 bytes).
  static constexpr usize kInlineBytes = 48;

  InlineFunction() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the payload into `dst` from `src` and destroys
    /// the `src` payload (a destructive move: one call per heap swap).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](void* dst, void* src) {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace vcop::sim
