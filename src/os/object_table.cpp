#include "os/object_table.h"

#include "base/table.h"

namespace vcop::os {

std::string_view ToString(Direction d) {
  switch (d) {
    case Direction::kIn: return "IN";
    case Direction::kOut: return "OUT";
    case Direction::kInOut: return "INOUT";
  }
  return "?";
}

Status ObjectTable::Map(const MappedObject& object) {
  if (object.id >= hw::kMaxObjects) {
    return InvalidArgumentError(
        StrFormat("object id %u out of range (max %u)", object.id,
                  hw::kMaxObjects - 1));
  }
  if (object.id == hw::kParamObject) {
    return InvalidArgumentError(StrFormat(
        "object id %u is reserved for parameter passing", object.id));
  }
  if (slots_[object.id].has_value()) {
    return FailedPreconditionError(
        StrFormat("object %u is already mapped", object.id));
  }
  if (object.size_bytes == 0) {
    return InvalidArgumentError("cannot map a zero-sized object");
  }
  if (object.elem_width != 1 && object.elem_width != 2 &&
      object.elem_width != 4) {
    return InvalidArgumentError(
        StrFormat("element width %u is not 1, 2 or 4", object.elem_width));
  }
  if (object.size_bytes % object.elem_width != 0) {
    return InvalidArgumentError(
        StrFormat("object size %u is not a multiple of element width %u",
                  object.size_bytes, object.elem_width));
  }
  slots_[object.id] = object;
  ++count_;
  ++version_;
  return Status::Ok();
}

Status ObjectTable::Unmap(hw::ObjectId id) {
  if (id >= hw::kMaxObjects || !slots_[id].has_value()) {
    return NotFoundError(StrFormat("object %u is not mapped", id));
  }
  slots_[id].reset();
  --count_;
  ++version_;
  return Status::Ok();
}

Status ObjectTable::Repoint(hw::ObjectId id, mem::UserAddr addr) {
  if (id >= hw::kMaxObjects || !slots_[id].has_value()) {
    return NotFoundError(StrFormat("object %u is not mapped", id));
  }
  slots_[id]->user_addr = addr;
  ++version_;
  return Status::Ok();
}

void ObjectTable::Clear() {
  for (auto& slot : slots_) slot.reset();
  count_ = 0;
  ++version_;
}

const MappedObject* ObjectTable::Find(hw::ObjectId id) const {
  if (id >= hw::kMaxObjects || !slots_[id].has_value()) return nullptr;
  return &*slots_[id];
}

std::vector<MappedObject> ObjectTable::All() const {
  std::vector<MappedObject> out;
  out.reserve(count_);
  for (const auto& slot : slots_) {
    if (slot.has_value()) out.push_back(*slot);
  }
  return out;
}

}  // namespace vcop::os
