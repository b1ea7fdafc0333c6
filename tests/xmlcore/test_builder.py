"""Tests for the tree-construction helpers."""

import pytest

from repro.xmlcore import (
    Document,
    ElementMaker,
    QName,
    XLINK_NAMESPACE,
    XmlTreeError,
    build,
    comment,
    parse_element,
    pi,
    serialize,
    text,
)


class TestBuild:
    def test_nested_expression(self):
        tree = build(
            "painting",
            {"id": "guitar"},
            build("title", {}, "Guitar"),
            build("year", {}, "1913"),
        )
        assert tree.get("id") == "guitar"
        assert tree.find("title").text_content() == "Guitar"

    def test_string_children_become_text(self):
        tree = build("t", {}, "hello ", build("b", {}, "world"))
        assert tree.text_content() == "hello world"

    def test_children_are_adopted_in_order(self):
        inner = build("b")
        tree = build("a", {}, "x", inner, "y")
        assert [child.parent for child in tree.children] == [tree] * 3
        assert serialize(tree) == "<a>x<b/>y</a>"

    def test_attached_child_rejected(self):
        inner = build("b")
        build("a", {}, inner)
        with pytest.raises(XmlTreeError):
            build("c", {}, inner)
        with pytest.raises(XmlTreeError):
            build("d", {}, build("e"), Document())

    def test_same_child_twice_rejected(self):
        inner = build("b")
        with pytest.raises(XmlTreeError):
            build("a", {}, inner, inner)

    def test_namespaces_argument_declares(self):
        tree = build("m", {}, namespaces={None: "urn:x"})
        assert "urn:x" in serialize(tree)

    def test_helper_nodes(self):
        tree = build("a", {}, comment("c"), pi("t", "d"), text("x"))
        assert serialize(tree) == "<a><!--c--><?t d?>x</a>"


class TestElementMaker:
    def test_attribute_access_style(self):
        E = ElementMaker(namespace=XLINK_NAMESPACE, prefix="xlink")
        el = E.locator({"href": "picasso.xml"})
        assert el.name == QName(XLINK_NAMESPACE, "locator")

    def test_call_style(self):
        E = ElementMaker()
        el = E("painting", {"id": "x"}, "body")
        assert el.name == QName(None, "painting")
        assert el.text_content() == "body"

    def test_serialized_maker_output_reparses(self):
        E = ElementMaker(namespace="urn:m", prefix="m")
        el = E.museum({}, E.painting({"id": "g"}))
        reparsed = parse_element(serialize(el))
        assert reparsed.name == QName("urn:m", "museum")
        assert reparsed.child_elements()[0].name == QName("urn:m", "painting")

    def test_private_attribute_access_raises(self):
        E = ElementMaker()
        try:
            E._nope
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected AttributeError")
