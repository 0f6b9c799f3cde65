#include "vis/data.hpp"

namespace colza::vis {

std::vector<std::byte> serialize_dataset(const DataSet& ds) {
  OutArchive ar;
  ar.save(static_cast<std::uint8_t>(ds.index()));
  std::visit([&ar](const auto& v) { ar.save(v); }, ds);
  return ar.release();
}

DataSet deserialize_dataset(std::span<const std::byte> bytes) {
  InArchive ar(bytes);
  std::uint8_t index = 0;
  ar.load(index);
  switch (index) {
    case 0: {
      UniformGrid g;
      ar.load(g);
      return g;
    }
    case 1: {
      UnstructuredGrid g;
      ar.load(g);
      return g;
    }
    case 2: {
      TriangleMesh m;
      ar.load(m);
      return m;
    }
    default:
      throw std::runtime_error("deserialize_dataset: bad variant index");
  }
}

namespace {

// Serialized widths of the element types that DataSet vectors hold.
constexpr std::size_t kVec3Bytes = 3 * sizeof(float);
constexpr std::size_t kIndexBytes = sizeof(std::uint32_t);

// Walks one serialized FieldData (DataArray::serialize per array), keeping
// the first array named `name` in `found` unless it is already set.
void walk_field_data(InArchive& ar, std::string_view name,
                     std::optional<ArrayView>& found) {
  std::uint64_t arrays = 0;
  ar.load(arrays);
  for (std::uint64_t i = 0; i < arrays; ++i) {
    const std::string_view array_name = ar.view_string();
    ArrayView view;
    ar.load(view.type);
    (void)ar.view_raw(sizeof(std::uint32_t));  // components
    view.bytes = ar.view_vector(1);
    if (!found && array_name == name) found = view;
  }
}

}  // namespace

std::optional<ArrayView> find_serialized_array(
    std::span<const std::byte> bytes, std::string_view name) {
  // Mirrors deserialize_dataset and each type's serialize(), field by field.
  InArchive ar(bytes);
  std::uint8_t index = 0;
  ar.load(index);
  std::optional<ArrayView> found;
  switch (index) {
    case 0:  // UniformGrid: dims, origin, spacing, point_data
      (void)ar.view_raw(3 * sizeof(std::uint32_t) + 2 * kVec3Bytes);
      walk_field_data(ar, name, found);
      return found;
    case 1:  // UnstructuredGrid
      (void)ar.view_vector(kVec3Bytes);   // points
      (void)ar.view_vector(kIndexBytes);  // connectivity
      (void)ar.view_vector(kIndexBytes);  // offsets
      (void)ar.view_vector(1);            // cell types
      walk_field_data(ar, name, found);   // point_data first,
      walk_field_data(ar, name, found);   // then cell_data
      return found;
    case 2:  // TriangleMesh: no named arrays
      (void)ar.view_vector(kVec3Bytes);     // points
      (void)ar.view_vector(kVec3Bytes);     // normals
      (void)ar.view_vector(sizeof(float));  // scalars
      (void)ar.view_vector(kIndexBytes);    // triangles
      return std::nullopt;
    default:
      throw std::runtime_error("deserialize_dataset: bad variant index");
  }
}

std::size_t dataset_byte_size(const DataSet& ds) {
  return std::visit([](const auto& v) { return v.byte_size(); }, ds);
}

Aabb dataset_bounds(const DataSet& ds) {
  return std::visit([](const auto& v) { return v.bounds(); }, ds);
}

}  // namespace colza::vis
